package main

import (
	"bytes"
	"testing"

	"drnet/internal/core"
	"drnet/internal/traceio"
)

func TestInputsDependOnTheSeedAlone(t *testing.T) {
	spec := evalSpec{records: 2000, contexts: 32, bootstrap: 10}
	_, a, _, err := spec.inputs(7)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _, err := spec.inputs(7)
	if err != nil {
		t.Fatal(err)
	}
	_, c, _, err := spec.inputs(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("payload %d differs between two runs with seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("payload %d is the same for seeds 7 and 8", i)
		}
	}
	if !bytes.Equal(mustJSON(newStream(7).prefix(3)), mustJSON(newStream(7).prefix(3))) {
		t.Fatal("stream batches differ between two runs with seed 7")
	}
}

// Every seed must ask drevald for the same amount of work: the same
// number of records and distinct contexts in every payload.
func TestPayloadShapeDoesNotDependOnTheSeed(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		bodies, _, _, err := evalWide.inputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range bodies {
			view, err := core.NewTraceViewKeyed(traceio.ToCore(traceio.FlatTrace{Records: b.Trace}), traceio.FlatContext.Key)
			if err != nil {
				t.Fatal(err)
			}
			if view.Len() != evalWide.records || view.NumContexts() != evalWide.contexts || view.NumDecisions() != 3 {
				t.Fatalf("seed %d payload %d: %d records, %d contexts, %d decisions", seed, i, view.Len(), view.NumContexts(), view.NumDecisions())
			}
		}
	}
}
