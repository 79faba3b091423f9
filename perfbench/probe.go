package main

import (
	"time"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// viewProbe times view.Builder.Build and core.Evaluator.Covered on a
// workload's own topology. Each view is the one its owner holds at its first
// receipt: the k-hop view with the lowest-id neighbor (the sender) visited.
type viewProbe struct {
	views, members, coveredTrue int
	build, covered              time.Duration
}

// run builds and evaluates the views of every stride-th node of g for each k
// (k <= 0 is the global view), one span per batch.
func (p *viewProbe) run(e *env, op int64, g *graph.Graph, ks []int, stride int) {
	base := view.BasePriorities(g, view.MetricID)
	b := view.NewBuilder()
	ev := core.NewEvaluator(g.N())
	for _, k := range ks {
		var views []*view.Local
		id := e.tr.begin(op, -1, "view.Build")
		t0 := time.Now()
		for v := 0; v < g.N(); v += stride {
			views = append(views, b.Build(g, v, k, base))
		}
		p.build += time.Since(t0)
		e.tr.end(id)
		for _, lv := range views {
			p.members += len(lv.Members())
			sender := -1
			g.ForEachNeighbor(lv.Owner, func(u int) {
				if sender < 0 {
					sender = u
				}
			})
			if sender >= 0 {
				lv.MarkVisited(sender)
			}
		}
		id = e.tr.begin(op, -1, "core.Covered")
		t0 = time.Now()
		for _, lv := range views {
			if ev.Covered(lv) {
				p.coveredTrue++
			}
		}
		p.covered += time.Since(t0)
		e.tr.end(id)
		p.views += len(views)
	}
}

func (p *viewProbe) record(layer map[string]float64) {
	if p.views == 0 {
		return
	}
	n := float64(p.views)
	layer["view.build_us"] = float64(p.build.Nanoseconds()) / 1e3 / n
	layer["view.members_mean"] = float64(p.members) / n
	layer["core.covered_us"] = float64(p.covered.Nanoseconds()) / 1e3 / n
	layer["core.covered_true_pct"] = 100 * float64(p.coveredTrue) / n
}
