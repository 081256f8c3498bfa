// Relay selection with NAT selection bias: the paper's Figure 3 story.
//
// A VoIP provider logs call quality. Historically only NAT-ed callers
// were relayed (they needed it for connectivity), so the per-AS-pair
// relay statistics are contaminated by the NAT population's worse
// last-mile conditions. A VIA-style evaluator that estimates
// Perf(A→R→B) from same-AS-pair relayed calls therefore underestimates
// how well relaying would serve public-IP callers.
//
// The example quantifies the bias, shows DR correcting it with the
// NAT-blind model, and shows that adding the NAT feature fixes the
// model directly (at the price the paper notes: higher dimensionality).
//
// Run with: go run ./examples/relayselect
package main

import (
	"fmt"

	"drnet/internal/core"
	"drnet/internal/mathx"
	"drnet/internal/relay"
)

func main() {
	//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
	rng := mathx.NewRNG(31)
	w := relay.DefaultWorld()
	world := &w
	if err := world.Init(rng); err != nil {
		panic(err)
	}
	fmt.Println(world)

	data, err := world.Collect(4000, rng)
	if err != nil {
		panic(err)
	}
	// How biased is the logging?
	natRelayed, pubRelayed := 0, 0
	for _, rec := range data.Trace {
		if rec.Decision == relay.Relayed {
			if rec.Context.NAT {
				natRelayed++
			} else {
				pubRelayed++
			}
		}
	}
	fmt.Printf("logged %d calls; relayed: %d NAT-ed vs %d public (the Figure 3 selection bias)\n\n",
		len(data.Trace), natRelayed, pubRelayed)

	np := world.NewPolicy() // relay every call
	truth := data.GroundTruth(np)

	via := data.VIAModel()
	full := data.FullModel()
	view, err := core.NewTraceView(data.Trace)
	must(err)
	dmVIA, err := core.DirectMethodView(view, np, via)
	must(err)
	drVIA, err := core.DoublyRobustView(view, np, via, core.DROptions{})
	must(err)
	dmFull, err := core.DirectMethodView(view, np, full)
	must(err)

	fmt.Printf("expected quality of 'relay everything':\n")
	fmt.Printf("  ground truth:            %6.3f\n", truth)
	fmt.Printf("  VIA (NAT-blind DM):      %6.3f  (error %.1f%%)\n", dmVIA.Value, 100*mathx.RelativeError(truth, dmVIA.Value))
	fmt.Printf("  DR with NAT-blind model: %6.3f  (error %.1f%%)\n", drVIA.Value, 100*mathx.RelativeError(truth, drVIA.Value))
	fmt.Printf("  DM with NAT feature:     %6.3f  (error %.1f%%)\n", dmFull.Value, 100*mathx.RelativeError(truth, dmFull.Value))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
