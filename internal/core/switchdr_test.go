package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"drnet/internal/mathx"
)

func TestSwitchDREqualsDRWithHugeTau(t *testing.T) {
	b := newTestBandit(71, 0.1)
	tr, _ := collectBanditTrace(b, 800, 0.4)
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	sw, err := SwitchDRView(mustView(t, tr), np, model, SwitchOptions{Tau: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sw.Value-dr.Value) > 1e-12 {
		t.Fatalf("SwitchDR(tau=inf) %g != DR %g", sw.Value, dr.Value)
	}
}

func TestSwitchDREqualsDMWithTinyTau(t *testing.T) {
	b := newTestBandit(72, 0.1)
	tr, _ := collectBanditTrace(b, 400, 0.4)
	np := banditNewPolicy(0.2)
	model := ConstantModel[float64, int]{Value: 3}
	sw, err := SwitchDRView(mustView(t, tr), np, model, SwitchOptions{Tau: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := DirectMethodView(mustView(t, tr), np, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sw.Value-dm.Value) > 1e-12 {
		t.Fatalf("SwitchDR(tau~0) %g != DM %g", sw.Value, dm.Value)
	}
}

func TestSwitchDRVarianceBetweenDMAndDR(t *testing.T) {
	// With a decent model and low-randomness logging, SwitchDR's
	// variance should sit below plain DR's.
	np := banditNewPolicy(0.05)
	model := RewardFunc[float64, int](func(c float64, d int) float64 {
		return c*float64(d+1) + 0.15
	})
	var drVals, swVals []float64
	for run := 0; run < 40; run++ {
		b := newTestBandit(int64(900+run), 0.3)
		tr, _ := collectBanditTrace(b, 300, 0.06)
		dr, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := SwitchDRView(mustView(t, tr), np, model, SwitchOptions{Tau: 5})
		if err != nil {
			t.Fatal(err)
		}
		drVals = append(drVals, dr.Value)
		swVals = append(swVals, sw.Value)
	}
	if mathx.Variance(swVals) >= mathx.Variance(drVals) {
		t.Fatalf("SwitchDR variance %g should be below DR %g in the low-randomness regime",
			mathx.Variance(swVals), mathx.Variance(drVals))
	}
}

func TestSwitchDRDefaultTau(t *testing.T) {
	b := newTestBandit(73, 0.1)
	tr, _ := collectBanditTrace(b, 500, 0.2)
	np := banditNewPolicy(0.1)
	sw, err := SwitchDRView(mustView(t, tr), np, RewardFunc[float64, int](b.trueReward), SwitchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.N != 500 {
		t.Fatalf("N = %d", sw.N)
	}
}

func TestSwitchDRErrors(t *testing.T) {
	np := banditNewPolicy(0.1)
	model := ConstantModel[float64, int]{}
	if _, err := SwitchDRView(mustView(t, Trace[float64, int]{}), np, model, SwitchOptions{}); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	tr := Trace[float64, int]{{Context: 0.5, Decision: 0, Reward: 1, Propensity: 0.5}}
	bad := FuncPolicy[float64, int](func(float64) []Weighted[int] { return nil })
	if _, err := SwitchDRView(mustView(t, tr), bad, model, SwitchOptions{}); err == nil {
		t.Fatal("expected invalid-distribution error")
	}
}

// streamDR appends tr record by record to a ViewBuilder, folds each
// record into a StreamEval as it arrives, and returns the DR reading.
func streamDR(tr Trace[float64, int], np Policy[float64, int], model RewardModel[float64, int]) (Estimate, *StreamEval[float64, int], error) {
	b := NewViewBuilder[float64, int]()
	se := NewStreamEval(np, model, StreamOptions{})
	for i, rec := range tr {
		if err := b.Append(rec); err != nil {
			return Estimate{}, se, err
		}
		if err := se.Apply(b.Snapshot(), i); err != nil {
			return Estimate{}, se, err
		}
	}
	est, err := se.Estimates()
	return est.DR, se, err
}

func TestStreamingDRMatchesBatch(t *testing.T) {
	b := newTestBandit(74, 0.1)
	tr, _ := collectBanditTrace(b, 700, 0.4)
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	got, s, err := streamDR(tr, np, model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || s.N() != len(tr) {
		t.Fatalf("streaming %+v (n=%d) != batch %+v", got, s.N(), want)
	}
}

func TestStreamingDRRejectsBadRecords(t *testing.T) {
	np := banditNewPolicy(0.2)
	b := NewViewBuilder[float64, int]()
	s := NewStreamEval(np, ConstantModel[float64, int]{}, StreamOptions{})
	if err := b.Append(Record[float64, int]{Propensity: 0}); err == nil {
		t.Fatal("expected rejection")
	}
	if err := s.Apply(b.Snapshot(), 0); err != nil || b.Len() != 0 || s.N() != 0 {
		t.Fatalf("rejected record was folded: %v, len %d, n %d", err, b.Len(), s.N())
	}
	if _, err := s.Estimates(); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace before any accepted record")
	}
	// A bad policy distribution makes DR refuse, naming the record.
	bad := FuncPolicy[float64, int](func(float64) []Weighted[int] {
		return []Weighted[int]{{Decision: 0, Prob: 0.2}}
	})
	if _, _, err := streamDR(Trace[float64, int]{{Propensity: 0.5}}, bad, ConstantModel[float64, int]{}); err == nil ||
		!strings.HasPrefix(err.Error(), "record 0: ") {
		t.Fatalf("expected distribution rejection, got %v", err)
	}
}

func TestStreamingDRIncremental(t *testing.T) {
	// The estimate must be queryable mid-stream and converge.
	b := newTestBandit(75, 0.05)
	tr, ctxs := collectBanditTrace(b, 2000, 0.5)
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	truth := TrueValue(ctxs, np, b.trueReward)
	records := NewViewBuilder[float64, int]()
	s := NewStreamEval(np, model, StreamOptions{})
	var errAt []float64
	for _, batch := range []Trace[float64, int]{tr[:100], tr[100:]} {
		from := records.Len()
		for _, rec := range batch {
			if err := records.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Apply(records.Snapshot(), from); err != nil {
			t.Fatal(err)
		}
		est, err := s.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		errAt = append(errAt, math.Abs(est.DR.Value-truth))
	}
	if errAt[1] > errAt[0]+0.02 {
		t.Fatalf("estimate did not improve with data: |err| %g -> %g", errAt[0], errAt[1])
	}
}
