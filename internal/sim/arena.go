package sim

import (
	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// Arena owns the fast engine's reusable hot state: the flat per-node state
// array, the calendar event queue, batch and collision scratch, coverage
// evaluators, the random streams, the storage of forward packets' trails,
// the forward list, and a cache of built local views. One Arena serves one
// run at a time; passing the same Arena to consecutive RunWith calls reuses
// every allocation, which is what makes large replication sweeps
// allocation-free in steady state: once the node states' receipt logs have
// grown to the runs' needs, a reused-arena Generic-FR broadcast allocates
// only the Network value, the protocol's own state and the Result.Forward
// copy (pinned by TestReusedArenaAllocs). Trail storage and the forward list
// are run-scoped: they are reclaimed when the arena's next run starts, which
// is also when node states and their receipts are reset.
//
// The view cache is keyed by (topology pointer, hops, metric): a run over the
// same key reuses the built views after clearing their learned status marks.
// Callers that mutate a graph in place between runs must therefore pass a new
// *graph.Graph (or a nil Arena) so the cache cannot serve stale views.
type Arena struct {
	nodes   []NodeState
	cal     calQueue
	builder *view.Builder

	// View cache (shared-topology modes; NodeViews runs bypass it).
	viewG      *graph.Graph
	viewHops   int
	viewMetric view.Metric
	views      []*view.Local
	base       []view.Priority

	// Coverage evaluators: one shared sequential instance plus one private
	// instance per precompute worker. Evaluators grow on demand, so one set
	// serves runs of any size.
	eval    *core.Evaluator
	wrkEval []*core.Evaluator

	// Run-scoped storage: forward packets' trails, the forward list, and
	// the random streams (reseeded per run).
	trails  trailSlab
	forward []int
	rngs    streams

	// Event-loop scratch.
	batch      []event  // fast engine same-instant batch
	obatch     []*event // oracle engine collision batch
	arrCnt     []int32  // per-node same-instant arrival counts
	arrTouched []int    // nodes with non-zero arrCnt entries
	prepared   []int8   // precomputed timer verdicts: -1 none, 0/1 verdict
	evtKind    []uint8  // per-node batch event classification bits
	evtTouched []int    // nodes with non-zero evtKind entries
	timerIdx   []int    // batch indices of precomputable timer events

	// Contention-MAC scratch (CarrierSense runs; see Network.resetMAC).
	busyUntil   []float64
	airEnd      []float64
	garbleUntil []float64
	txPending   []bool
	txq         []txRing
}

// NewArena returns an empty Arena ready for RunWith.
func NewArena() *Arena {
	return &Arena{builder: view.NewBuilder()}
}

// stateNodes returns the flat node-state array resized and reset for an
// n-node run. Receipt and designation slices keep their capacity across runs.
func (a *Arena) stateNodes(n int) []NodeState {
	if cap(a.nodes) < n {
		a.nodes = make([]NodeState, n)
	}
	nodes := a.nodes[:n]
	for v := range nodes {
		st := &nodes[v]
		*st = NodeState{
			ID:           v,
			FirstFrom:    -1,
			Receipts:     st.Receipts[:0],
			DesignatedBy: st.DesignatedBy[:0],
			trails:       &a.trails,
		}
	}
	a.nodes = nodes
	return nodes
}

// viewsFor returns one local view per node built from vg, serving them from
// the cache (with learned marks cleared) when the key matches the previous
// run.
func (a *Arena) viewsFor(vg *graph.Graph, hops int, metric view.Metric) ([]*view.Local, []view.Priority) {
	n := vg.N()
	if a.viewG == vg && a.viewHops == hops && a.viewMetric == metric && len(a.views) == n {
		for _, lv := range a.views {
			lv.ResetStatus()
		}
		return a.views, a.base
	}
	a.viewG, a.viewHops, a.viewMetric = vg, hops, metric
	a.base = view.BasePriorities(vg, metric)
	views := a.views[:0]
	for v := 0; v < n; v++ {
		views = append(views, a.builder.Build(vg, v, hops, a.base))
	}
	a.views = views
	return views, a.base
}

// evaluator returns the run's shared sequential coverage evaluator.
func (a *Arena) evaluator(n int) *core.Evaluator {
	if a.eval == nil {
		a.eval = core.NewEvaluator(n)
	}
	return a.eval
}

// workerEvals returns w private evaluators for the parallel precompute phase.
func (a *Arena) workerEvals(w, n int) []*core.Evaluator {
	for len(a.wrkEval) < w {
		a.wrkEval = append(a.wrkEval, core.NewEvaluator(n))
	}
	return a.wrkEval[:w]
}

// ensureMACScratch sizes the contention-MAC scratch for an n-node run. The
// five arrays are always (re)allocated together, so one capacity check
// suffices; Network.resetMAC clears the entries it will use.
func (a *Arena) ensureMACScratch(n int) {
	if cap(a.busyUntil) < n {
		a.busyUntil = make([]float64, n)
		a.airEnd = make([]float64, n)
		a.garbleUntil = make([]float64, n)
		a.txPending = make([]bool, n)
		a.txq = make([]txRing, n)
	}
	a.busyUntil = a.busyUntil[:n]
	a.airEnd = a.airEnd[:n]
	a.garbleUntil = a.garbleUntil[:n]
	a.txPending = a.txPending[:n]
	a.txq = a.txq[:n]
}

// ensureLoopScratch sizes the batch-processing scratch for an n-node run.
// The count and classification arrays rely on their users to zero touched
// entries after every batch, so reuse needs no clearing pass here.
func (a *Arena) ensureLoopScratch(n int, workers bool) {
	if cap(a.arrCnt) < n {
		a.arrCnt = make([]int32, n)
	}
	a.arrCnt = a.arrCnt[:n]
	if !workers {
		return
	}
	if cap(a.evtKind) < n {
		a.evtKind = make([]uint8, n)
	}
	a.evtKind = a.evtKind[:n]
	if cap(a.prepared) < n {
		a.prepared = make([]int8, n)
		for i := range a.prepared {
			a.prepared[i] = -1
		}
	}
	a.prepared = a.prepared[:n]
}
