package experiments

import (
	"fmt"

	"adhocbcast/internal/cds"
	"adhocbcast/internal/cluster"
	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/mobility"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// The experiments in this file go beyond the paper's figures: they quantify
// the claims its discussion sections make without plots (mobility tolerance,
// collision relief via jitter) and ablate the design choices called out in
// DESIGN.md (piggyback depth, backoff window, the visited-union assumption).
// Their X axes are parameter values rather than network sizes.

// Mobility reproduces the Section 1 mobility claim: nodes move between the
// hello exchange and the broadcast, so protocols decide on stale views while
// packets propagate over the actual topology. The series report the average
// delivery ratio (in percent) of algorithms with increasing redundancy as a
// function of the maximum per-node movement (in area units). Flooding is the
// upper bound; more aggressive pruning degrades faster.
func Mobility(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, "M1", "Delivery ratio under stale views vs node movement", "delivery %")
	s.extension([]variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "SBA", make: protocol.SBA},
		{label: "Generic-FRB", make: generic(protocol.TimingBackoffRandom)},
		{label: "Generic-FR", make: generic(protocol.TimingFirstReceipt)},
	}, func(v variant, d int) {
		for _, step := range []int{0, 1, 2, 3, 5, 8} {
			s.add(point{label: fmt.Sprintf("M1/%s/step=%d/d=%d", v.label, step, d), x: step, n: 100, d: d,
				sample: func(r *replicate) (float64, error) {
					// Perturbation draws live on their own seed-derived
					// stream (see mobility.Perturbed), so every movement
					// step of every variant perturbs the same replication-i
					// network from the shared workload cache.
					actual := mobility.Perturbed(r.w.net, 100, float64(step), mobilitySeed(rc.Seed, d, r.i, step))
					res, err := r.run(actual.G, v.make(), sim.Config{Hops: 2, ViewTopology: r.w.net.G})
					return 100 * res.DeliveryRatio(), err
				}})
		}
	})
	return s.run()
}

// Reliability quantifies the broadcast storm discussion: under a collision
// MAC, synchronized retransmissions destroy each other; a small forwarding
// jitter restores delivery, and pruning protocols suffer far less than
// flooding to begin with. Series report delivery ratio (%) vs jitter window.
func Reliability(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, "R1", "Delivery ratio under a collision MAC vs forwarding jitter", "delivery %")
	s.extension([]variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "Generic-FR", make: generic(protocol.TimingFirstReceipt)},
	}, func(v variant, d int) {
		for _, j := range []int{0, 1, 2, 4} {
			s.add(point{label: fmt.Sprintf("R1/%s/jitter=%d/d=%d", v.label, j, d), x: j, n: 100, d: d, salt: int64(j << 40),
				sample: func(r *replicate) (float64, error) {
					res, err := r.run(r.w.net.G, v.make(), sim.Config{Hops: 2, Collisions: true, TxJitter: float64(j)})
					return 100 * res.DeliveryRatio(), err
				}})
		}
	})
	return s.run()
}

// PiggybackAblation sweeps the broadcast-state depth h (Section 4.3): the
// number of recently visited nodes carried in the packet. The paper observes
// that extra piggybacked history has little impact; this ablation measures
// it. X is h; -1 disables piggybacking entirely (snooping only).
func PiggybackAblation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, "A1", "Ablation: forward nodes vs piggyback depth h (Generic-FR)", "")
	s.extension([]variant{{label: "Generic-FR"}}, func(_ variant, d int) {
		for _, h := range []int{-1, 1, 2, 4, 8} {
			v := variant{
				label: fmt.Sprintf("h=%d", h),
				make:  generic(protocol.TimingFirstReceipt),
				cfg:   sim.Config{Hops: 2, PiggybackDepth: h},
			}
			s.add(point{label: fmt.Sprintf("A1/%s/n=100/d=%d", v.label, d), x: max(h, 0), n: 100, d: d, sample: forwardCount(v)})
		}
	})
	return s.run()
}

// BackoffAblation sweeps the FRB/FRBD backoff window (in transmission
// slots), documenting the calibration of DESIGN.md: the benefit of waiting
// only materializes once the window spans several transmission delays.
func BackoffAblation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, "A2", "Ablation: forward nodes vs backoff window (n=100)", "")
	s.extension([]variant{
		{label: protocol.TimingBackoffRandom.String(), make: generic(protocol.TimingBackoffRandom)},
		{label: protocol.TimingBackoffDegree.String(), make: generic(protocol.TimingBackoffDegree)},
	}, func(timing variant, d int) {
		for _, w := range []int{1, 2, 4, 8, 16} {
			v := variant{
				label: fmt.Sprintf("w=%d", w),
				make:  timing.make,
				cfg:   sim.Config{Hops: 2, BackoffWindow: float64(w)},
			}
			s.add(point{label: fmt.Sprintf("A2/%s/%s/n=100/d=%d", timing.label, v.label, d), x: w, n: 100, d: d, sample: forwardCount(v)})
		}
	})
	return s.run()
}

// VisitedUnionAblation contrasts the generic coverage condition with and
// without the visited-nodes-are-connected assumption (the Figure 6(b)
// mechanism), measuring how much pruning the assumption is worth. X is the
// network size.
func VisitedUnionAblation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	withoutUnion := func() sim.Protocol {
		return protocol.New(protocol.Options{
			Name:      "Generic-NoUnion",
			Timing:    protocol.TimingFirstReceipt,
			Selection: protocol.SelfPruning,
			Covered: func(rt sim.Runtime, st *sim.NodeState) bool {
				return rt.Evaluator().CoveredWithoutVisitedUnion(st.View)
			},
			SelfPrune: true,
		})
	}
	variants := []variant{
		{label: "with union", make: generic(protocol.TimingFirstReceipt), cfg: sim.Config{Hops: 2}},
		{label: "without union", make: withoutUnion, cfg: sim.Config{Hops: 2}},
	}
	s := newSweep(rc, "A3", "Ablation: the visited-union assumption (Generic-FR, 2-hop)", "")
	for _, d := range rc.Degrees {
		s.sizes("A3", fmt.Sprintf("d=%d", d), d, variants)
	}
	return s.run()
}

// Clustering compares backbone sizes in dense networks (the Section 2 /
// Section 6 density discussion): the raw lowest-id cluster backbone (heads
// plus gateways), the same backbone after coverage-condition reduction, and
// the distributed generic static backbone, across densities. X is the
// average degree d at n=100.
func Clustering(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	methods := []struct {
		label string
		size  func(g *graph.Graph) (int, error)
	}{
		{label: "Cluster backbone", size: func(g *graph.Graph) (int, error) {
			return len(cluster.LowestID(g).Backbone(g)), nil
		}},
		{label: "Cluster+reduce", size: func(g *graph.Graph) (int, error) {
			return len(cds.Reduce(g, cluster.LowestID(g).Backbone(g))), nil
		}},
		{label: "Generic static", size: func(g *graph.Graph) (int, error) {
			base := view.BasePriorities(g, view.MetricID)
			ev := core.NewEvaluator(g.N())
			count := 0
			for v := 0; v < g.N(); v++ {
				lv := view.NewLocal(g, v, 2, base)
				if !ev.Covered(lv) {
					count++
				}
			}
			return count, nil
		}},
		{label: "Guha-Khuller", size: func(g *graph.Graph) (int, error) {
			set, err := cds.GuhaKhuller(g)
			return len(set), err
		}},
	}
	s := newSweep(rc, "C1", "Backbone sizes vs density (n=100)", "mean backbone size")
	s.panel("n=100")
	for _, m := range methods {
		s.series(m.label)
		for _, d := range []int{6, 12, 18, 24, 30} {
			s.add(point{label: fmt.Sprintf("C1/%s/d=%d", m.label, d), x: d, n: 100, d: d,
				sample: func(r *replicate) (float64, error) {
					size, err := m.size(r.w.net.G)
					return float64(size), err
				}})
		}
	}
	return s.run()
}

// Latency quantifies the timing-policy delay discussion of Section 4.1:
// static and FR decisions add no end-to-end delay while the backoff
// policies trade completion time for fewer forward nodes. The series report
// the mean first-delivery latency across nodes (in transmission slots) per
// timing policy; X is the network size.
func Latency(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, "L1", "Mean first-delivery latency vs timing policy", "mean latency (slots)")
	for _, d := range rc.Degrees {
		s.panel(fmt.Sprintf("d=%d, 2-hop", d))
		for _, timing := range []protocol.Timing{
			protocol.TimingStatic,
			protocol.TimingFirstReceipt,
			protocol.TimingBackoffRandom,
			protocol.TimingBackoffDegree,
		} {
			s.series(timing.String())
			for _, n := range rc.Sizes {
				s.add(point{label: fmt.Sprintf("L1/%s/n=%d/d=%d", timing, n, d), x: n, n: n, d: d,
					sample: func(r *replicate) (float64, error) {
						rec := &sim.Recorder{}
						res, err := r.run(r.w.net.G, protocol.Generic(timing), sim.Config{Hops: 2, Observer: rec})
						if err != nil {
							return 0, err
						}
						if !res.FullDelivery() {
							return 0, fmt.Errorf("latency: delivered %d/%d", res.Delivered, res.N)
						}
						return rec.MeanDeliveryLatency(), nil
					}})
			}
		}
	}
	return s.run()
}

// ExtensionByID dispatches the extension experiments by name.
func ExtensionByID(id string, rc RunConfig) (Figure, error) {
	switch id {
	case "cluster":
		return Clustering(rc)
	case "latency":
		return Latency(rc)
	case "mobility":
		return Mobility(rc)
	case "reliability":
		return Reliability(rc)
	case "piggyback":
		return PiggybackAblation(rc)
	case "backoff":
		return BackoffAblation(rc)
	case "visitedunion":
		return VisitedUnionAblation(rc)
	case "crash":
		return CrashDegradation(rc)
	case "crashforward":
		return CrashForwardRatio(rc)
	case "loss":
		return LossDegradation(rc)
	case "helloloss":
		return HelloLossDelivery(rc)
	case "hellolossforward":
		return HelloLossForwardRatio(rc)
	case "hellolosslatency":
		return HelloLossLatency(rc)
	case "restart":
		return RestartDelivery(rc)
	case "restartlatency":
		return RestartLatency(rc)
	default:
		return Figure{}, fmt.Errorf("experiments: unknown extension %q (valid: %v)", id, AllExtensionIDs())
	}
}

// AllExtensionIDs lists the extension experiments.
func AllExtensionIDs() []string {
	return []string{"mobility", "reliability", "piggyback", "backoff", "visitedunion", "cluster", "latency", "crash", "crashforward", "loss", "helloloss", "hellolossforward", "hellolosslatency", "restart", "restartlatency"}
}

// mobilitySeed derives the perturbation seed for one mobility replication.
// The variant label is deliberately excluded (every series sees the same
// movements) while the step is included, so different sweep points move the
// shared workload network differently.
func mobilitySeed(base int64, d, rep, step int) int64 {
	return deriveSeed("mobility", base, d, rep, step)
}
