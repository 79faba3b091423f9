package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// The restart experiments measure crash-recovery degradation: a fraction of
// the nodes is SIGKILLed mid-broadcast and comes back after a fixed outage
// window (a down interval in the fault plan, not a permanent crash), on top
// of the same 10% lossy channel the crash sweeps use. Unlike the crash
// sweeps, every node is reachable again by the end of the run, so delivery is
// scored against the whole network: what the curves show is how much of a
// wave a restarting node permanently misses, and how much of that the NACK
// recovery layer and the dynamic-hello conservative hold claw back. This is
// the simulation face of the process-kill chaos harness
// (internal/runtime/chaos); docs/recovery.md connects the two.

// restartOutage is the length of one down window in transmission slots: long
// enough that an un-recovered pruning wave has passed when the node returns,
// short enough that the NACK layer's retries are still in flight.
const restartOutage = 5.0

// restartVariants are the curves of the restart figures: protocols with the
// recovery machinery layered on them. The hold variant's dynamic-hello
// staleness schedule is a pure function of its own seed (see
// internal/hello), which each replicate sets to its workload seed, so every
// replicate sees a different beacon-loss pattern but reruns are
// bit-identical.
func restartVariants() []variant {
	nack := sim.Config{NACKRecovery: true}
	hold := sim.Config{
		NACKRecovery:         true,
		DynamicHello:         &hello.Dynamic{Interval: 2, Expiry: 2.5, LossRate: 0.2},
		ConservativeFallback: true,
	}
	return []variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "Generic-FR", make: generic(protocol.TimingFirstReceipt)},
		{label: "Generic-FRB+NACK", make: generic(protocol.TimingBackoffRandom), cfg: nack},
		{label: "Generic-FRB+NACK+Hold", make: generic(protocol.TimingBackoffRandom), cfg: hold},
	}
}

// restartSeed derives the kill-schedule seed for one (replication, sweep
// value) cell. The variant is deliberately excluded: every curve sees the
// same networks, sources, and restart schedules (common random numbers).
func restartSeed(base int64, n, d, rep, permille int) int64 {
	return deriveSeed("restart", base, n, d, rep, permille)
}

// restartPlan builds one replicate's kill schedule: a rng-chosen fraction of
// the nodes (source protected) each goes down once, at a uniform time in the
// first 10 slots, for restartOutage slots.
func restartPlan(g *graph.Graph, source int, frac float64, seed int64) (*fault.Plan, error) {
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	plan := fault.NewEmptyPlan(n)
	k := int(math.Round(frac * float64(n)))
	placed := 0
	for _, v := range rng.Perm(n) {
		if placed == k {
			break
		}
		if v == source {
			continue
		}
		from := rng.Float64() * 10
		plan.AddNodeDown(v, fault.Interval{From: from, To: from + restartOutage})
		placed++
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	return plan, nil
}

// RestartDelivery sweeps the restart fraction: X is the percentage of nodes
// that go down for one outage window mid-broadcast, and the series report the
// delivery ratio over all nodes (everyone is back up by the end). Flooding's
// redundancy and long lossy-channel tail reach most returning nodes; the
// pruned waves are gone by the time a node returns, and the NACK layer plus
// the conservative hold recover part of the gap.
func RestartDelivery(rc RunConfig) (Figure, error) {
	return restartSweep(rc, "RS1",
		"Crash-recovery: delivery vs restart fraction (n=100, 10% loss)",
		"delivery %",
		func(res sim.Result, rec *sim.Recorder) float64 { return 100 * res.DeliveryRatio() })
}

// RestartLatency is the companion cost curve of RestartDelivery: the mean
// first-delivery latency across the nodes that did deliver. Restart survivors
// that catch the wave only through recovery retransmissions deliver late, so
// the curve rises with the restart fraction — the price of the delivery the
// recovery machinery buys back.
func RestartLatency(rc RunConfig) (Figure, error) {
	return restartSweep(rc, "RS2",
		"Crash-recovery: mean delivery latency vs restart fraction (n=100, 10% loss)",
		"mean latency (slots)",
		func(res sim.Result, rec *sim.Recorder) float64 { return rec.MeanDeliveryLatency() })
}

func restartSweep(rc RunConfig, id, title, unit string, metric func(sim.Result, *sim.Recorder) float64) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, id, title, unit)
	s.extension(restartVariants(), func(v variant, d int) {
		for _, frac := range rc.RestartRates {
			pct := int(math.Round(100 * frac))
			s.add(point{label: fmt.Sprintf("%s/%s/restart=%d/d=%d", id, v.label, pct, d), x: pct, n: 100, d: d,
				sample: func(r *replicate) (float64, error) {
					plan, err := restartPlan(r.w.net.G, r.w.source, frac, restartSeed(rc.Seed, 100, d, r.i, pct*10))
					if err != nil {
						return 0, err
					}
					rec := &sim.Recorder{}
					cfg := v.cfg
					cfg.Hops, cfg.LossRate, cfg.Faults, cfg.Observer = 2, crashAmbientLoss, plan, rec
					if cfg.DynamicHello != nil {
						dh := *cfg.DynamicHello
						dh.Seed = r.seed
						cfg.DynamicHello = &dh
					}
					res, err := r.run(r.w.net.G, v.make(), cfg)
					return metric(res, rec), err
				}})
		}
	})
	return s.run()
}
