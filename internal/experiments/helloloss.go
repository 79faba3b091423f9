package experiments

import (
	"fmt"
	"math"

	"adhocbcast/internal/hello"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// The hello-loss experiments measure the imperfect-knowledge pipeline end to
// end: views are assembled by a lossy hello exchange (every node holds a
// different, possibly incomplete graph), the simulator runs each node's
// pruning decision on its own view, and the conservative fallback — nodes
// that can prove their view incomplete refuse non-forward status — is
// measured as an overlay. This quantifies the paper's Section 4.3 caveat that
// the coverage condition is only safe when the k-hop views are right: with
// k = Hops = 2 rounds of lossless hellos the sweep's zero point reproduces
// the paper's setup exactly, and every further point degrades only the
// knowledge, never the channel the broadcast itself uses.

// helloRounds is the number of hello exchange rounds, matching the 2-hop
// views every other experiment uses.
const helloRounds = 2

// helloVariants are the curves of the hello-loss figures: protocols with
// and without the conservative fallback.
func helloVariants() []variant {
	cf := sim.Config{ConservativeFallback: true}
	return []variant{
		// Flooding ignores views entirely: the flat control line separating
		// knowledge-induced losses from channel effects (there are none).
		{label: "Flooding", make: protocol.Flooding},
		{label: "Generic-FR", make: generic(protocol.TimingFirstReceipt)},
		{label: "Generic-FR+CF", make: generic(protocol.TimingFirstReceipt), cfg: cf},
		{label: "Generic-FRB", make: generic(protocol.TimingBackoffRandom)},
		{label: "Generic-FRB+CF", make: generic(protocol.TimingBackoffRandom), cfg: cf},
	}
}

// helloSeed derives the hello-exchange seed for one (replication, sweep
// value) cell. The variant is deliberately excluded: every curve sees the
// same networks, sources, and hello loss patterns (common random numbers),
// so with and without fallback differ only in the decisions.
func helloSeed(base int64, n, d, rep, permille int) int64 {
	return deriveSeed("helloloss", base, n, d, rep, permille)
}

// HelloLossDelivery sweeps the hello loss rate: X is the per-receiver
// probability (in percent) that one hello broadcast is lost during view
// formation, and the series report the delivery ratio. Pruning on incomplete
// views strands nodes; the conservative fallback recovers most of the lost
// delivery by refusing non-forward status at provably incomplete nodes.
func HelloLossDelivery(rc RunConfig) (Figure, error) {
	return helloSweep(rc, "H1",
		"Imperfect views: delivery vs hello loss rate (n=100, 2 rounds)",
		"delivery %",
		func(res sim.Result, _ *sim.Recorder) float64 { return 100 * res.DeliveryRatio() })
}

// HelloLossForwardRatio is the companion cost curve of HelloLossDelivery: the
// fraction of delivered nodes that forwarded. The fallback's recovered
// delivery is paid for here — every node that knows its view is incomplete
// forwards, so the forward ratio climbs toward flooding as hello loss rises.
func HelloLossForwardRatio(rc RunConfig) (Figure, error) {
	return helloSweep(rc, "H2",
		"Imperfect views: forward ratio vs hello loss rate (n=100, 2 rounds)",
		"forward % of delivered",
		func(res sim.Result, _ *sim.Recorder) float64 {
			if res.Delivered == 0 {
				return 0
			}
			return 100 * float64(res.ForwardCount()) / float64(res.Delivered)
		})
}

// HelloLossLatency completes the trade-off picture: mean first-delivery
// latency (in transmission slots, over the nodes actually reached) vs hello
// loss rate. Wrong views can shorten apparent latency by stranding the far
// nodes; the fallback's extra transmissions restore reach without a backoff
// cost at FR timing.
func HelloLossLatency(rc RunConfig) (Figure, error) {
	return helloSweep(rc, "H3",
		"Imperfect views: mean delivery latency vs hello loss rate (n=100, 2 rounds)",
		"mean latency (slots)",
		func(_ sim.Result, rec *sim.Recorder) float64 { return rec.MeanDeliveryLatency() })
}

// helloSweep runs one hello-loss figure. Every replicate regenerates the
// exchange from its own seed, so results are a pure function of (Seed, n, d,
// rep, rate) — bit-identical across -parallel settings and repeated runs.
func helloSweep(rc RunConfig, id, title, unit string, metric func(sim.Result, *sim.Recorder) float64) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, id, title, unit)
	s.extension(helloVariants(), func(v variant, d int) {
		for _, rate := range rc.HelloLossRates {
			pct := int(math.Round(100 * rate))
			s.add(point{label: fmt.Sprintf("%s/%s/helloloss=%d/d=%d", id, v.label, pct, d), x: pct, n: 100, d: d,
				sample: func(r *replicate) (float64, error) {
					views, err := hello.Exchange(r.w.net.G, hello.Config{
						Rounds:   helloRounds,
						LossRate: rate,
						Seed:     helloSeed(rc.Seed, 100, d, r.i, pct*10),
					})
					if err != nil {
						return 0, err
					}
					rec := &sim.Recorder{}
					cfg := v.cfg
					cfg.Hops, cfg.Observer, cfg.NodeViews, cfg.ViewIncomplete = 2, rec, views.Graph, views.Incomplete
					res, err := r.run(r.w.net.G, v.make(), cfg)
					if err != nil {
						return 0, err
					}
					if r.metrics != nil {
						// Tracing is on: export the view-divergence counters
						// alongside the run record. Only the driver can fill
						// these — the simulator never sees the ground truth.
						div, err := views.Divergence(r.w.net.G)
						if err != nil {
							return 0, err
						}
						r.metrics.ViewMissingLinks = div.MissingLinks
						r.metrics.ViewPhantomLinks = div.PhantomLinks
					}
					return metric(res, rec), nil
				}})
		}
	})
	return s.run()
}
