package experiments

import (
	"fmt"
	"math"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// The degradation experiments quantify how gracefully each point of the
// generic framework's design space survives hostile conditions — the
// Section 1 motivation the paper's collision-free static evaluation leaves
// unmeasured. Crashed nodes partition the network, so delivery is scored
// against the nodes still reachable from the source (a partition is a
// workload property, not a protocol failure); the NACK recovery layer is
// measured as an overlay on the most aggressive pruner.

// crashAmbientLoss is the background per-receipt loss rate of the crash
// sweeps. Crashes alone drop copies silently — nothing is overheard, so
// recovery has nothing to react to; a lossy channel underneath is both the
// realistic companion condition and what lets the NACK layer show its value
// alongside the crash-induced degradation.
const crashAmbientLoss = 0.1

// degradeVariants are the curves of the degradation figures: protocols with
// the recovery setting layered on them.
func degradeVariants() []variant {
	return []variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "Generic-FR", make: generic(protocol.TimingFirstReceipt)},
		{label: "Generic-FRB", make: generic(protocol.TimingBackoffRandom)},
		{label: "Generic-FRB+NACK", make: generic(protocol.TimingBackoffRandom), cfg: sim.Config{NACKRecovery: true}},
	}
}

// degradeSeed derives the fault-plan seed for one (replication, sweep value)
// cell. The variant is deliberately excluded: every curve of a figure sees
// the same networks, sources, and fault plans (common random numbers).
func degradeSeed(base int64, n, d, rep, permille int) int64 {
	return deriveSeed("degrade", base, n, d, rep, permille)
}

// CrashDegradation sweeps the crash fraction: X is the percentage of nodes
// that fail-stop mid-broadcast (uniform crash times over the first 10
// slots, source protected) on top of a 10% lossy channel, and the series
// report the reachability-aware delivery ratio. Flooding's redundancy keeps
// it near-perfect; the pruning protocols' sparse forward sets lose whole
// subtrees when a forwarder dies; the NACK layer claws back the
// loss-induced part of the gap.
func CrashDegradation(rc RunConfig) (Figure, error) {
	return crashSweep(rc, "D1",
		"Degradation: reachable delivery vs crash fraction (n=100, 10% loss)",
		"reachable delivery %",
		func(res sim.Result) float64 { return 100 * res.ReachableDeliveryRatio() })
}

// CrashForwardRatio is the companion cost curve of CrashDegradation: the
// fraction of delivered nodes that forwarded. It shows what the delivery
// gap buys — flooding pays with (nearly) every node that hears the packet
// retransmitting, while the pruners keep their forward sets small even as
// crashes shrink the network under them. Delivered (not reachable) is the
// denominator because only nodes holding the packet can forward; nodes cut
// off mid-broadcast may have received and forwarded before the cut.
func CrashForwardRatio(rc RunConfig) (Figure, error) {
	return crashSweep(rc, "D2",
		"Degradation: forward ratio vs crash fraction (n=100, 10% loss)",
		"forward % of delivered",
		func(res sim.Result) float64 {
			if res.Delivered == 0 {
				return 0
			}
			return 100 * float64(res.ForwardCount()) / float64(res.Delivered)
		})
}

func crashSweep(rc RunConfig, id, title, unit string, metric func(sim.Result) float64) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, id, title, unit)
	s.extension(degradeVariants(), func(v variant, d int) {
		for _, frac := range rc.CrashFractions {
			pct := int(math.Round(100 * frac))
			s.add(point{label: fmt.Sprintf("%s/%s/crash=%d/d=%d", id, v.label, pct, d), x: pct, n: 100, d: d,
				sample: func(r *replicate) (float64, error) {
					plan, err := fault.NewPlan(r.w.net.G, fault.Params{
						CrashFraction: frac,
						Protect:       []int{r.w.source},
					}, degradeSeed(rc.Seed, 100, d, r.i, pct*10))
					if err != nil {
						return 0, err
					}
					cfg := v.cfg
					cfg.Hops, cfg.LossRate, cfg.Faults = 2, crashAmbientLoss, plan
					res, err := r.run(r.w.net.G, v.make(), cfg)
					return metric(res), err
				}})
		}
	})
	return s.run()
}

// LossDegradation sweeps the per-receipt loss rate with no faults: X is the
// loss percentage, series report the delivery ratio. This is the cleanest
// view of the recovery layer: with every drop overheard, the NACK variant
// buys back most of what pruning loses to the channel.
func LossDegradation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, "D3", "Degradation: delivery vs loss rate (n=100)", "delivery %")
	s.extension(degradeVariants(), func(v variant, d int) {
		for _, rate := range rc.LossRates {
			pct := int(math.Round(100 * rate))
			s.add(point{label: fmt.Sprintf("D3/%s/loss=%d/d=%d", v.label, pct, d), x: pct, n: 100, d: d,
				sample: func(r *replicate) (float64, error) {
					cfg := v.cfg
					cfg.Hops, cfg.LossRate = 2, rate
					res, err := r.run(r.w.net.G, v.make(), cfg)
					return 100 * res.DeliveryRatio(), err
				}})
		}
	})
	return s.run()
}
