package core

import (
	"sync"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// Evaluator evaluates the coverage conditions with reusable scratch state.
// The stateless entry points (Covered, StrongCovered, ...) borrow a pooled
// evaluator per call; inside a simulation those conditions run once per node
// decision per receipt, so a simulation holds one Evaluator (see
// sim.Network.Evaluator) and reuses its buffers across all node decisions of
// the run.
//
// Evaluations run on view-local indices: begin numbers the view's members
// 0..m-1 by their position in lv.Members() (ascending global id), and every
// edge and membership question after that is answered in those positions.
// The member index memIdx, the only n-sized array, maps a global id to its
// position and carries two flags, H membership and owner-neighbor, so each
// neighbor a scan of a topology list meets costs one lookup. The union-find,
// BFS distances, neighbor numbering and dominating-component rows are
// indexed by position and sized to the largest view seen. The generic
// condition scans each owner neighbor's list once, recording the H
// components the neighbor is in or adjacent to and the neighbors' pair
// adjacency in a |N(v)|² matrix, so its pair loop reads matrix entries
// instead of probing edges one pair at a time. The index lives here, in
// per-evaluator scratch, and not in the views: a simulation holds one
// evaluator but n views.
//
// All work is proportional to the view's size, not to n. Touched scratch
// entries are restored after every evaluation, so an evaluator shared by a
// million-node run costs one n-sized int32 array plus view-sized buffers,
// and O(|Nk|·deg) time per decision.
//
// An Evaluator is NOT safe for concurrent use; concurrent simulations must
// each hold their own. Every evaluation restores its scratch before
// returning, so results never depend on what the evaluator computed before —
// the equivalence with the stateless functions is asserted by tests.
type Evaluator struct {
	// memIdx maps a global id to its member position + 1 (posMask bits),
	// or 0 for a non-member, plus the inH and isNbr flags.
	memIdx []int32

	// View-local scratch, indexed by member position.
	hMembers []int // positions of H's members, ascending
	uf       *graph.UnionFind
	dist     []int32 // BFS scratch for the restricted condition, -1 idle
	queue    []int
	nbrIdx   []int // position -> index in nbrs, -1 for non-neighbors

	nbrs    []int   // owner neighbors' positions
	pairAdj []bool  // len(nbrs)² view adjacency between owner neighbors
	comps   [][]int // per-neighbor H-component root sets

	// Dense replacement for the root -> covered-neighbor map of the
	// dominating-component check: rowOf maps a component root to an active
	// coverage row, rows/rowCnt hold the per-root coverage bitsets and their
	// cardinalities, and touched lists the roots to clean up afterwards.
	rowOf   []int
	rows    []*graph.Bitset
	rowCnt  []int
	touched []int
}

// Flags on memIdx entries, above the position bits (which leave room for
// views of up to 2^29-1 members).
const (
	inH     int32 = 1 << 30 // member of the higher-priority set H
	isNbr   int32 = 1 << 29 // neighbor of the owner
	posMask int32 = isNbr - 1
)

// NewEvaluator returns an evaluator sized for graphs of up to n nodes. It
// grows automatically if handed a larger view.
func NewEvaluator(n int) *Evaluator {
	ev := &Evaluator{}
	ev.ensure(n)
	return ev
}

// ensure sizes the global-id index for graphs of up to n nodes.
func (ev *Evaluator) ensure(n int) {
	if n > len(ev.memIdx) {
		ev.memIdx = make([]int32, n)
	}
}

// ensureLocal sizes the position-indexed scratch for views of up to m
// members.
func (ev *Evaluator) ensureLocal(m int) {
	if m <= len(ev.dist) {
		return
	}
	ev.uf = graph.NewUnionFind(m)
	ev.dist = fill(make([]int32, m), -1)
	ev.nbrIdx = fill(make([]int, m), -1)
	ev.rowOf = fill(make([]int, m), -1)
}

func fill[T any](a []T, x T) []T {
	for i := range a {
		a[i] = x
	}
	return a
}

// begin indexes the view's members into memIdx so that every neighbor seen
// during the evaluation maps to its member position in O(1).
func (ev *Evaluator) begin(lv *view.Local) {
	ev.ensure(lv.N())
	members := lv.Members()
	ev.ensureLocal(len(members))
	for i, x := range members {
		ev.memIdx[x] = int32(i + 1)
	}
}

// end restores the scratch touched by begin, ownerNeighbors and the H
// computation; clearing memIdx clears its flags too.
func (ev *Evaluator) end(lv *view.Local) {
	for _, x := range lv.Members() {
		ev.memIdx[x] = 0
	}
	ev.hMembers = ev.hMembers[:0]
	for _, u := range ev.nbrs {
		ev.nbrIdx[u] = -1
	}
	ev.nbrs = ev.nbrs[:0]
}

// pos returns the member position of global id y, or -1 for a non-member.
func (ev *Evaluator) pos(y int) int { return int(ev.memIdx[y]&posMask) - 1 }

// addH adds the member at position x to H.
func (ev *Evaluator) addH(lv *view.Local, x int) {
	ev.memIdx[lv.Members()[x]] |= inH
	ev.hMembers = append(ev.hMembers, x)
}

// ownerNeighbors fills ev.nbrs with the positions of the owner's view
// neighbors and indexes them in nbrIdx. The owner is at distance 0 and never
// on the fringe, so these are exactly its topology neighbors that are
// members.
func (ev *Evaluator) ownerNeighbors(lv *view.Local) []int {
	lv.Topo().ForEachNeighbor(lv.Owner, func(y int) {
		if j := ev.pos(y); j >= 0 {
			ev.memIdx[y] |= isNbr
			ev.nbrIdx[j] = len(ev.nbrs)
			ev.nbrs = append(ev.nbrs, j)
		}
	})
	return ev.nbrs
}

// Covered is the generic coverage condition of Section 3 (see the package
// function Covered) evaluated with this evaluator's scratch.
func (ev *Evaluator) Covered(lv *view.Local) bool {
	return ev.coveredOuter(lv, true)
}

// CoveredWithoutVisitedUnion is the ablation variant without the
// visited-nodes-are-connected assumption.
func (ev *Evaluator) CoveredWithoutVisitedUnion(lv *view.Local) bool {
	return ev.coveredOuter(lv, false)
}

func (ev *Evaluator) coveredOuter(lv *view.Local, mergeVisited bool) bool {
	ev.begin(lv)
	ok := ev.covered(lv, mergeVisited)
	ev.end(lv)
	return ok
}

func (ev *Evaluator) covered(lv *view.Local, mergeVisited bool) bool {
	nbrs := ev.ownerNeighbors(lv)
	d := len(nbrs)
	if d <= 1 {
		return true
	}
	ev.higherComponents(lv, mergeVisited)
	adj := ev.neighborPairs(lv)
	for i := 0; i < d; i++ {
		row := adj[i*d : (i+1)*d]
		for j := i + 1; j < d; j++ {
			if !row[j] && !intersectSorted(ev.comps[i], ev.comps[j]) {
				return false
			}
		}
	}
	return true
}

// neighborPairs scans each owner neighbor's topology list once. It records
// the view links among the owner's neighbors in the d×d matrix it returns
// (row i, column j set iff nbrs[i]–nbrs[j] is a view link) and fills
// ev.comps[i] with the sorted H-component roots through which nbrs[i] can be
// reached: its own component when it is in H, else those of its neighbors
// in H.
func (ev *Evaluator) neighborPairs(lv *view.Local) []bool {
	d := len(ev.nbrs)
	if cap(ev.pairAdj) < d*d {
		ev.pairAdj = make([]bool, d*d)
	}
	adj := ev.pairAdj[:d*d]
	clear(adj)
	for len(ev.comps) < d {
		ev.comps = append(ev.comps, nil)
	}
	members, topo := lv.Members(), lv.Topo()
	for i, u := range ev.nbrs {
		row := adj[i*d : (i+1)*d]
		set := ev.comps[i][:0]
		uInH := ev.memIdx[members[u]]&inH != 0
		if uInH {
			set = append(set, ev.uf.Find(u))
		}
		uFringe := lv.FringeAt(u)
		topo.ForEachNeighbor(int(members[u]), func(y int) {
			m := ev.memIdx[y]
			if m == 0 {
				return
			}
			j := int(m&posMask) - 1
			if uFringe && lv.FringeAt(j) {
				return
			}
			if m&isNbr != 0 {
				row[ev.nbrIdx[j]] = true
			}
			if !uInH && m&inH != 0 {
				set = append(set, ev.uf.Find(j))
			}
		})
		sortDedup(&set)
		ev.comps[i] = set
	}
	return adj
}

// StrongCovered is the strong coverage condition of Section 6 evaluated with
// this evaluator's scratch.
func (ev *Evaluator) StrongCovered(lv *view.Local) bool {
	ev.begin(lv)
	ok := true
	if len(ev.ownerNeighbors(lv)) > 0 {
		ev.higherComponents(lv, true)
		ok = ev.dominating(lv)
	}
	ev.end(lv)
	return ok
}

// StrongCoveredRestricted is the strong coverage condition with coverage
// nodes restricted to maxDist hops of the owner, evaluated with this
// evaluator's scratch.
func (ev *Evaluator) StrongCoveredRestricted(lv *view.Local, maxDist int) bool {
	ev.begin(lv)
	ok := true
	if len(ev.ownerNeighbors(lv)) > 0 {
		o := ev.pos(lv.Owner)
		prv := lv.Pr(lv.Owner)
		// View-BFS bounded to maxDist: nodes farther than maxDist cannot
		// enter H, so distances beyond the bound are never needed.
		ev.viewDistances(lv, o, maxDist)
		for x := range lv.Members() {
			if x != o && ev.dist[x] >= 1 && lv.PrAt(x).Greater(prv) {
				ev.addH(lv, x)
			}
		}
		for _, x := range ev.queue {
			ev.dist[x] = -1
		}
		ev.contract(lv, true)
		ok = ev.dominating(lv)
	}
	ev.end(lv)
	return ok
}

// higherComponents marks the members of the higher-priority subgraph H
// (the inH flag and ev.hMembers) and contracts H's connected components into
// ev.uf.
func (ev *Evaluator) higherComponents(lv *view.Local, mergeVisited bool) {
	o := ev.pos(lv.Owner)
	prv := lv.Pr(lv.Owner)
	for x := range lv.Members() {
		if x != o && lv.PrAt(x).Greater(prv) {
			ev.addH(lv, x)
		}
	}
	ev.contract(lv, mergeVisited)
}

// contract unions H members along view edges (and all visited members into
// one component when mergeVisited is set), resetting their union-find
// entries first.
func (ev *Evaluator) contract(lv *view.Local, mergeVisited bool) {
	ev.uf.ResetSubset(ev.hMembers)
	members, topo := lv.Members(), lv.Topo()
	firstVisited := -1
	for _, x := range ev.hMembers {
		if mergeVisited && lv.StatusAt(x) == view.Visited {
			if firstVisited < 0 {
				firstVisited = x
			} else {
				ev.uf.Union(firstVisited, x)
			}
		}
		// Each link is united once, from its lower end; positions follow
		// global ids, so the cheap id comparison filters first.
		gx, xf := int(members[x]), lv.FringeAt(x)
		topo.ForEachNeighbor(gx, func(y int) {
			if y <= gx {
				return
			}
			if m := ev.memIdx[y]; m&inH != 0 {
				if j := int(m&posMask) - 1; !(xf && lv.FringeAt(j)) {
					ev.uf.Union(x, j)
				}
			}
		})
	}
}

// dominating reports whether some single component of H dominates the
// owner's neighbors (every neighbor in the component or adjacent to it). It
// replaces the map-based bookkeeping of the stateless path with dense rows
// indexed by component root, counting coverage incrementally so a full row
// short-circuits without a final counting pass.
func (ev *Evaluator) dominating(lv *view.Local) bool {
	d := len(ev.nbrs)
	full := false
	mark := func(root, i int) {
		r := ev.rowOf[root]
		if r < 0 {
			r = len(ev.touched)
			if r == len(ev.rows) {
				ev.rows = append(ev.rows, graph.NewBitset(d))
				ev.rowCnt = append(ev.rowCnt, 0)
			}
			if ev.rows[r].Cap() < d {
				ev.rows[r] = graph.NewBitset(d)
			}
			ev.rows[r].Reset()
			ev.rowCnt[r] = 0
			ev.rowOf[root] = r
			ev.touched = append(ev.touched, root)
		}
		if !ev.rows[r].Has(i) {
			ev.rows[r].Set(i)
			ev.rowCnt[r]++
			if ev.rowCnt[r] == d {
				full = true
			}
		}
	}
	members, topo := lv.Members(), lv.Topo()
	for _, x := range ev.hMembers {
		if full {
			break
		}
		root := ev.uf.Find(x)
		if i := ev.nbrIdx[x]; i >= 0 {
			mark(root, i)
		}
		xf := lv.FringeAt(x)
		topo.ForEachNeighbor(int(members[x]), func(y int) {
			if m := ev.memIdx[y]; m&isNbr != 0 {
				if j := int(m&posMask) - 1; !(xf && lv.FringeAt(j)) {
					mark(root, ev.nbrIdx[j])
				}
			}
		})
	}
	for _, root := range ev.touched {
		ev.rowOf[root] = -1
	}
	ev.touched = ev.touched[:0]
	return full
}

// viewDistances fills ev.dist with hop distances from member position src
// over the view's edges, bounded to maxDist hops; untouched entries stay -1.
// ev.queue lists the touched positions for cleanup. Must run between begin
// and end (it relies on memIdx).
func (ev *Evaluator) viewDistances(lv *view.Local, src, maxDist int) {
	members, topo := lv.Members(), lv.Topo()
	ev.queue = append(ev.queue[:0], src)
	ev.dist[src] = 0
	for head := 0; head < len(ev.queue); head++ {
		x := ev.queue[head]
		d := ev.dist[x]
		if int(d) >= maxDist {
			continue
		}
		xf := lv.FringeAt(x)
		topo.ForEachNeighbor(int(members[x]), func(y int) {
			j := ev.pos(y)
			if j < 0 || (xf && lv.FringeAt(j)) {
				return
			}
			if ev.dist[j] < 0 {
				ev.dist[j] = d + 1
				ev.queue = append(ev.queue, j)
			}
		})
	}
}

// evalPool backs the stateless package functions so one-shot callers also
// avoid rebuilding scratch per call.
var evalPool = sync.Pool{New: func() any { return &Evaluator{} }}

func withEvaluator(n int, f func(ev *Evaluator) bool) bool {
	ev := evalPool.Get().(*Evaluator)
	ev.ensure(n)
	ok := f(ev)
	evalPool.Put(ev)
	return ok
}
