package sim

import (
	"container/heap"
	"fmt"
	"math"

	"adhocbcast/internal/core"
	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/view"
)

// Protocol is a broadcast protocol plugged into an executor. One Protocol
// value serves a single run on a single Runtime; stateful protocols keep
// per-run state in the node states' Data slots or in themselves. The
// simulator drives one instance for the whole network; the live executor
// (internal/runtime) drives one instance per node, which the Runtime
// contract's locality property makes equivalent.
type Protocol interface {
	// Name returns the protocol's display name.
	Name() string
	// Init runs once per run after local views are built; static protocols
	// compute their forward statuses here, iterating the runtime's local
	// nodes (Runtime.ForEachLocalNode).
	Init(rt Runtime)
	// Start handles the broadcast source at time 0. The source always
	// forwards; protocols that designate forward neighbors select them here.
	Start(rt Runtime, source int)
	// OnReceive handles delivery of one packet copy to node v. The executor
	// has already recorded the receipt and merged the packet's broadcast
	// state into v's local view.
	OnReceive(rt Runtime, v int, r Receipt)
	// OnTimer fires a timer previously set with Runtime.SetTimer.
	OnTimer(rt Runtime, v int)
}

// NodeState is the simulator-side state of one node.
type NodeState struct {
	// ID is the node id.
	ID int
	// View is the node's local view (topology plus learned broadcast
	// state).
	View *view.Local
	// Received reports whether at least one packet copy arrived.
	Received bool
	// FirstFrom is the sender of the first copy (-1 at the source).
	FirstFrom int
	// FirstPacket is the first delivered packet copy.
	FirstPacket Packet
	// LastPacket is the most recently delivered copy; its trail seeds the
	// trail of this node's own transmission.
	LastPacket Packet
	// Sent reports whether the node has transmitted.
	Sent bool
	// NonForward reports a finalized non-forward decision.
	NonForward bool
	// DesignatedBy lists the nodes that designated this node as a forward
	// node, in learning order.
	DesignatedBy []int
	// Receipts records every delivered copy in order.
	Receipts []Receipt
	// Data is protocol-private per-node state.
	Data any

	// sentPkt is the packet this node transmitted, kept for recovery-layer
	// retransmissions.
	sentPkt Packet
	// trails is the run-scoped storage BuildForwardPacket carves trails
	// from (the arena's; nil outside an arena).
	trails *trailSlab
}

// Designated reports whether any node designated this node.
func (st *NodeState) Designated() bool { return len(st.DesignatedBy) > 0 }

// DesignatedByNode reports whether node u designated this node.
func (st *NodeState) DesignatedByNode(u int) bool {
	for _, x := range st.DesignatedBy {
		if x == u {
			return true
		}
	}
	return false
}

// Result summarizes one simulated broadcast.
type Result struct {
	// Forward lists the transmitting nodes (including the source) in
	// transmission order.
	Forward []int
	// Delivered is the number of nodes that received the packet.
	Delivered int
	// N is the network size.
	N int
	// Finish is the time of the last event.
	Finish float64
	// Receipts is the total number of packet copies delivered (a measure
	// of channel load and redundancy).
	Receipts int
	// Copies is the total number of packet copies transmitted, including
	// recovery retransmissions. Every copy is eventually delivered or
	// dropped: Receipts + Lost + Collided + FaultDrops() == Copies.
	Copies int
	// Lost counts copies dropped by the random-loss model.
	Lost int
	// Collided counts copies dropped by the collision model.
	Collided int
	// DroppedNodeDown counts copies dropped because the receiver was
	// crashed or churned down at arrival time.
	DroppedNodeDown int
	// DroppedLinkDown counts copies dropped because the link was down at
	// arrival time.
	DroppedLinkDown int
	// TimersCancelled counts protocol timers cancelled because their owner
	// was down when they fired.
	TimersCancelled int
	// NACKs counts recovery requests sent by receivers.
	NACKs int
	// Retransmits counts recovery retransmissions sent (a subset of
	// Copies).
	Retransmits int
	// QueueDrops counts packets dropped from contention-MAC transmit
	// queues (capacity overflow, or a queue wiped when its node went
	// down). Queued packets never became transmitted copies, so queue
	// drops are outside the Copies conservation identity. Zero without
	// CarrierSense.
	QueueDrops int
	// MACDeferrals counts transmit attempts deferred because carrier sense
	// found the channel busy. Zero without CarrierSense.
	MACDeferrals int
	// Reachable is the number of nodes reachable from the source once the
	// fault plan's crashed nodes are removed (N when no plan is set).
	Reachable int
	// DeliveredReachable is the number of reachable nodes that received
	// the packet.
	DeliveredReachable int
}

// DeliveryRatio returns the fraction of nodes that received the packet.
func (r Result) DeliveryRatio() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.N)
}

// ReachableDeliveryRatio returns the fraction of *reachable* nodes that
// received the packet: delivered over the nodes still connected to the source
// after removing crashed nodes. Under a partitioning fault plan this scores
// the protocol only on the nodes it could possibly have served, so a
// partitioned network is not counted as a protocol failure. Without a fault
// plan it equals DeliveryRatio.
func (r Result) ReachableDeliveryRatio() float64 {
	if r.Reachable == 0 {
		return 0
	}
	return float64(r.DeliveredReachable) / float64(r.Reachable)
}

// FaultDrops returns the total copies dropped by the fault plan, by any
// cause.
func (r Result) FaultDrops() int { return r.DroppedNodeDown + r.DroppedLinkDown }

// Conserved reports whether the copy accounting closes: every transmitted
// copy was delivered or dropped, Receipts + Lost + Collided + FaultDrops()
// == Copies.
func (r Result) Conserved() bool {
	return r.Receipts+r.Lost+r.Collided+r.FaultDrops() == r.Copies
}

// ForwardCount returns the number of forward (transmitting) nodes.
func (r Result) ForwardCount() int { return len(r.Forward) }

// FullDelivery reports whether every node received the packet.
func (r Result) FullDelivery() bool { return r.Delivered == r.N }

// Network is one simulation instance.
type Network struct {
	// G is the true connectivity graph.
	G *graph.Graph
	// Cfg is the run configuration (defaults applied).
	Cfg Config
	// Source is the broadcast originator.
	Source int

	protocol Protocol
	arena    *Arena
	rngs     streams
	plan     *fault.Plan
	now      float64
	seq      int
	fast     bool       // calendar-queue engine (EngineFast)
	workers  int        // precompute workers (fast engine; >= 1)
	queue    eventQueue // oracle engine's binary heap (EngineOracle)
	nodes    []NodeState
	prepared []int8 // precomputed timer verdicts (nil unless workers > 1)
	forward  []int
	base     []view.Priority
	viewG    *graph.Graph   // topology the views were built from (global-view modes)
	nodeView []*graph.Graph // per-node view topologies (NodeViews mode, else nil)

	// Multi-session traffic state (RunTraffic; nil/zero for single runs).
	newProto   func() Protocol // per-session protocol factory
	multi      []*sessionState // session states indexed by session id
	tmplViews  []*view.Local   // built views sessions clone their own from
	delivered  int             // first deliveries across sessions
	latSamples []float64       // per-session-relative first-delivery latencies

	// Contention-MAC state (CarrierSense; nil/zero otherwise). All slices
	// are arena scratch, reset per run.
	busyUntil   []float64 // per transmitter: end of its transmission on the air
	airEnd      []float64 // per receiver: latest in-flight arrival time
	garbleUntil []float64 // per receiver: arrivals at or before this are garbled
	txPending   []bool    // per node: a tx-attempt event is in flight
	txq         []txRing  // per-node FIFO transmit queues

	receipts        int
	copies          int
	lost            int
	collided        int
	droppedNodeDown int
	droppedLinkDown int
	timersCancelled int
	nacks           int
	retransmits     int
	queueDrops      int
	macDeferrals    int
}

// stateOf returns the bookkeeping state of node v within session sid; single
// runs (no session table) route to the network-wide node array.
func (net *Network) stateOf(sid int32, v int) *NodeState {
	if net.multi == nil {
		return &net.nodes[v]
	}
	return &net.multi[sid].nodes[v]
}

// protocolOf returns the protocol instance handling session sid.
func (net *Network) protocolOf(sid int32) Protocol {
	if net.multi == nil {
		return net.protocol
	}
	return net.multi[sid].proto
}

// runtimeOf returns the Runtime protocol callbacks of session sid run
// against: the network itself for single runs, the session's scoped runtime
// in traffic runs.
func (net *Network) runtimeOf(sid int32) Runtime {
	if net.multi == nil {
		return net
	}
	return &net.multi[sid].rt
}

// Run simulates one broadcast of protocol p from source over g and returns
// the outcome. It returns an error only for invalid inputs (out-of-range
// source, malformed Config or fault plan); protocol behavior (including
// failed delivery) is reported in the Result.
func Run(g *graph.Graph, source int, p Protocol, cfg Config) (Result, error) {
	return RunWith(nil, g, source, p, cfg)
}

// RunWith is Run with an explicit Arena: consecutive runs through the same
// Arena reuse node state, event-queue buckets, evaluator scratch, and (when
// topology, hops, and metric repeat) the built local views, making sweep
// iterations allocation-free in steady state. A nil Arena allocates a private
// one. An Arena serves one run at a time; concurrent runs need one each.
// Because built views are cached by topology pointer, callers must not mutate
// a graph in place between runs that share an Arena.
func RunWith(a *Arena, g *graph.Graph, source int, p Protocol, cfg Config) (Result, error) {
	if source < 0 || source >= g.N() {
		return Result{}, fmt.Errorf("sim: source %d out of range [0,%d)", source, g.N())
	}
	if err := cfg.validate(g.N()); err != nil {
		return Result{}, err
	}
	net := newNetwork(a, g, source, cfg)
	net.protocol = p
	if err := net.build(); err != nil {
		return Result{}, err
	}
	p.Init(net)
	net.deliverToSource()
	p.Start(net, source)
	net.loop()
	return net.result(), nil
}

// newNetwork prepares one run over g on arena a (nil allocates a private
// one): defaults applied, the arena's run-scoped storage reclaimed, and the
// event queue, loop and MAC scratch reset. cfg must already be validated.
func newNetwork(a *Arena, g *graph.Graph, source int, cfg Config) *Network {
	if a == nil {
		a = NewArena()
	}
	a.trails.reset()
	net := &Network{
		G:       g,
		Cfg:     cfg.withDefaults(),
		Source:  source,
		arena:   a,
		plan:    cfg.Faults,
		forward: a.forward[:0],
	}
	a.rngs.reset(cfg.Seed, net.Cfg)
	net.rngs = a.rngs
	net.fast = net.Cfg.Engine == EngineFast
	net.workers = 1
	if net.fast {
		if net.Cfg.Workers > 1 {
			net.workers = net.Cfg.Workers
		}
		a.cal.reset(net.Cfg.TransmitDelay)
	}
	a.ensureLoopScratch(g.N(), net.workers > 1)
	if net.workers > 1 {
		net.prepared = a.prepared
	}
	if net.Cfg.CarrierSense {
		net.resetMAC(g.N())
	}
	if m := net.Cfg.Metrics; m != nil {
		m.Reset()
	}
	return net
}

func (net *Network) build() error {
	n := net.G.N()
	a := net.arena
	net.nodes = a.stateNodes(n)
	if net.Cfg.NodeViews != nil {
		// Per-node views: every node's local view AND its priority metrics
		// come from its own (possibly wrong) graph. Nodes therefore disagree
		// not only about links but also about degree-derived priorities —
		// exactly the divergence a lossy hello exchange produces. Divergent
		// views can never share the arena's view cache, so they are built
		// fresh every run.
		net.nodeView = make([]*graph.Graph, n)
		for v := 0; v < n; v++ {
			gv := net.Cfg.NodeViews(v)
			if gv == nil {
				return fmt.Errorf("sim: NodeViews returned nil for node %d", v)
			}
			if gv.N() != n {
				return fmt.Errorf("sim: node %d view has %d nodes, network has %d", v, gv.N(), n)
			}
			net.nodeView[v] = gv
			base := view.BasePriorities(gv, net.Cfg.Metric)
			net.nodes[v].View = a.builder.Build(gv, v, net.Cfg.Hops, base)
		}
		return nil
	}
	// Views (and the priority metrics inside them) come from the view
	// topology, which may be a stale snapshot of the actual graph.
	vg := net.G
	if net.Cfg.ViewTopology != nil {
		vg = net.Cfg.ViewTopology
	}
	net.viewG = vg
	views, base := a.viewsFor(vg, net.Cfg.Hops, net.Cfg.Metric)
	net.base = base
	for v := 0; v < n; v++ {
		net.nodes[v].View = views[v]
	}
	return nil
}

// deliverToSource marks the source as having the packet so that protocols
// can treat it uniformly. The source's first delivery is reported at t=0
// with sender -1 — it holds the packet from the start, so latency statistics
// must not wait for a neighbor's retransmission to echo back.
func (net *Network) deliverToSource() {
	st := &net.nodes[net.Source]
	st.Received = true
	st.FirstPacket = Packet{Source: net.Source}
	st.LastPacket = st.FirstPacket
	net.obsDeliver(0, net.Source, -1)
	if net.Cfg.Metrics != nil {
		net.Cfg.Metrics.Latency.Observe(0)
	}
}

// down reports whether node v is down (crashed or churned) at the current
// simulation time.
func (net *Network) down(v int) bool {
	return net.plan != nil && net.plan.NodeDownAt(v, net.now)
}

func (net *Network) loop() {
	if net.fast {
		net.loopFast()
		return
	}
	if !net.Cfg.Collisions {
		for net.queue.Len() > 0 {
			e := heap.Pop(&net.queue).(*event)
			if debugChecks && e.at < net.now {
				panic(fmt.Sprintf("sim: event time %v before now %v", e.at, net.now))
			}
			net.now = e.at
			net.dispatch(e)
		}
		return
	}
	// Collision mode: drain all events sharing one instant as a batch; two
	// or more copies arriving at the same receiver at the same instant
	// destroy each other. Copies already dropped by the fault plan do not
	// count as arrivals — a down node's radio is off, not jamming.
	batch := net.arena.obatch[:0]
	for net.queue.Len() > 0 {
		batch = batch[:0]
		at := net.queue[0].at
		for net.queue.Len() > 0 && net.queue[0].at == at {
			batch = append(batch, heap.Pop(&net.queue).(*event))
		}
		if debugChecks && at < net.now {
			panic(fmt.Sprintf("sim: event time %v before now %v", at, net.now))
		}
		net.now = at
		live := batch[:0]
		for _, e := range batch {
			if e.kind == eventReceive && net.dropByFault(e) {
				continue
			}
			live = append(live, e)
		}
		arr, touched := net.countArrivals(eventsOf(live))
		for _, e := range live {
			if e.kind == eventReceive && arr[e.node] > 1 {
				net.collided++
				net.maybeNACK(e.session, e.node, e.receipt.From, e.attempt)
				continue
			}
			net.dispatch(e)
		}
		net.clearArrivals(arr, touched)
	}
	net.arena.obatch = batch[:0]
}

// countArrivals tallies same-instant receive arrivals per receiver into the
// arena's flat count array, returning it with the list of touched nodes. The
// caller must hand both back to clearArrivals once done — the array relies on
// that discipline to stay all-zero between batches instead of being cleared
// per batch (the batch is tiny compared to n).
func (net *Network) countArrivals(events func(yield func(*event))) ([]int32, []int) {
	arr := net.arena.arrCnt
	touched := net.arena.arrTouched[:0]
	events(func(e *event) {
		if e.kind != eventReceive {
			return
		}
		if arr[e.node] == 0 {
			touched = append(touched, e.node)
		}
		arr[e.node]++
	})
	return arr, touched
}

func (net *Network) clearArrivals(arr []int32, touched []int) {
	for _, v := range touched {
		arr[v] = 0
	}
	net.arena.arrTouched = touched[:0]
}

// eventsOf adapts a pointer-event batch to the iterator countArrivals takes.
func eventsOf(batch []*event) func(yield func(*event)) {
	return func(yield func(*event)) {
		for _, e := range batch {
			yield(e)
		}
	}
}

func (net *Network) dispatch(e *event) {
	switch e.kind {
	case eventReceive:
		if net.dropByFault(e) {
			return
		}
		if net.Cfg.CarrierSense && net.garbledArrival(e.node) {
			net.collided++
			net.maybeNACK(e.session, e.node, e.receipt.From, e.attempt)
			return
		}
		net.handleReceive(e.session, e.node, e.receipt, e.attempt, false)
	case eventTimer:
		if net.down(e.node) {
			// A down node loses its pending decision timers: a crashed
			// node forever, a churned node because the reboot wiped its
			// soft state.
			net.timersCancelled++
			return
		}
		net.protocolOf(e.session).OnTimer(net.runtimeOf(e.session), e.node)
	case eventNACK:
		net.handleNACK(e)
	case eventRetransmit:
		net.handleRetransmit(e)
	case eventSessionStart:
		net.startSession(e.session, e.node)
	case eventTxAttempt:
		net.txAttempt(e.node)
	}
}

// dropByFault drops a receive event whose receiver or link is down at
// arrival time, accounting the drop by cause. It is idempotent for events
// that are not dropped, so the collision path may pre-filter a batch and
// dispatch the survivors through the normal path.
func (net *Network) dropByFault(e *event) bool {
	if net.plan == nil {
		return false
	}
	if net.plan.NodeDownAt(e.node, net.now) {
		net.droppedNodeDown++
		return true
	}
	if net.plan.LinkDownAt(e.receipt.From, e.node, net.now) {
		net.droppedLinkDown++
		return true
	}
	return false
}

// handleReceive delivers one packet copy to node v. merged marks a copy whose
// view merge already happened in the fast engine's parallel pre-merge phase
// (see precompute); everything order-sensitive — RNG draws, counters,
// observers, receipt bookkeeping, the protocol callback — still runs here, in
// event order.
func (net *Network) handleReceive(sid int32, v int, r Receipt, attempt int, merged bool) {
	if debugChecks && net.down(v) {
		panic(fmt.Sprintf("sim: delivery dispatched to down node %d at %v", v, net.now))
	}
	if net.Cfg.LossRate > 0 && net.rngs.loss.Float64() < net.Cfg.LossRate {
		net.lost++
		// The receiver detected a garbled transmission it could not
		// decode: with recovery enabled it asks the sender to retry.
		net.maybeNACK(sid, v, r.From, attempt)
		return
	}
	net.receipts++
	net.obsDeliver(sid, v, r.From)
	st := net.stateOf(sid, v)
	first := st.RecordReceipt(r)
	if first {
		if net.multi != nil {
			// Multi-session latency is relative to the session's injection
			// time; exact samples feed the traffic quantiles.
			s := net.multi[sid]
			s.delivered++
			net.delivered++
			lat := net.now - s.start
			net.latSamples = append(net.latSamples, lat)
			if net.Cfg.Metrics != nil {
				net.Cfg.Metrics.Latency.Observe(lat)
			}
		} else if net.Cfg.Metrics != nil {
			net.Cfg.Metrics.Latency.Observe(net.now)
		}
	}

	if !merged {
		net.mergeReceipt(st, v, r)
	}
	net.protocolOf(sid).OnReceive(net.runtimeOf(sid), v, r)
}

// mergeReceipt merges a copy's broadcast state into v's local view (see the
// exported MergeReceipt, shared with the live executor). The merge is monotone
// and touches nothing but v's own state, which is what lets the fast engine
// apply a node's same-instant merges from a worker goroutine.
func (net *Network) mergeReceipt(st *NodeState, v int, r Receipt) {
	MergeReceipt(st, v, r)
}

// maybeNACK schedules a recovery request from receiver v to sender `from`
// after a copy was dropped by loss or collision (the drops a radio can
// detect; a down node or link leaves nothing to overhear). attempt is the
// retry number of the dropped copy; the request asks for attempt+1, bounded
// by the retry budget. Receivers that already hold the packet do not bother.
func (net *Network) maybeNACK(sid int32, v, from, attempt int) {
	if !net.Cfg.NACKRecovery || net.stateOf(sid, v).Received {
		return
	}
	next := attempt + 1
	if next > net.Cfg.RetryBudget {
		return
	}
	net.nacks++
	net.seq++
	net.pushEvent(event{
		at:      net.now + net.Cfg.NACKDelay,
		seq:     net.seq,
		kind:    eventNACK,
		node:    from,
		peer:    v,
		attempt: next,
		session: sid,
	})
}

// maxRetryExponent caps the exponential retry backoff at RetryBackoff * 2^12
// (4096 slots — far beyond any broadcast horizon). Without the cap a large
// RetryBudget lets Ldexp overflow the delay to +Inf, which would wedge the
// calendar queue; a recovery attempt thousands of slots out is equivalent to
// a dead chain anyway, so capping changes nothing observable for sane budgets.
const maxRetryExponent = 12

// retryBackoffDelay returns the bounded exponential backoff before recovery
// retransmission k (1-based): base * 2^(k-1), capped at base * 2^maxRetryExponent.
func retryBackoffDelay(base float64, attempt int) float64 {
	exp := attempt - 1
	if exp > maxRetryExponent {
		exp = maxRetryExponent
	}
	return math.Ldexp(base, exp)
}

// handleNACK processes a recovery request arriving at the original sender:
// the retransmission is scheduled after an exponential backoff, unless the
// sender itself is down by now (then the recovery chain dies — there is
// nobody left to retry).
func (net *Network) handleNACK(e *event) {
	u := e.node
	if net.down(u) {
		return
	}
	delay := retryBackoffDelay(net.Cfg.RetryBackoff, e.attempt)
	if net.Cfg.CarrierSense {
		// Hidden terminals cannot sense each other, so symmetric recovery
		// chains with identical deterministic backoffs would retry in
		// lockstep and re-collide forever. Classic binary exponential
		// backoff: spread the retry by a random whole-slot count within a
		// window that doubles per attempt.
		exp := e.attempt
		if exp > maxRetryExponent {
			exp = maxRetryExponent
		}
		delay += float64(net.rngs.mac.Intn(1<<uint(exp))) * net.Cfg.TransmitDelay
	}
	net.seq++
	net.pushEvent(event{
		at:      net.now + delay,
		seq:     net.seq,
		kind:    eventRetransmit,
		node:    u,
		peer:    e.peer,
		attempt: e.attempt,
		session: e.session,
	})
}

// handleRetransmit emits one unicast recovery copy from sender e.node to
// receiver e.peer, subject to the same loss, collision, and fault filters as
// any other copy.
func (net *Network) handleRetransmit(e *event) {
	u := e.node
	st := net.stateOf(e.session, u)
	if net.down(u) || !st.Sent {
		return
	}
	if net.Cfg.CarrierSense {
		// Under the contention MAC the recovery copy shares the radio:
		// it queues behind the node's pending broadcasts, waits for a
		// clear channel, and can itself collide — so recovery is
		// exercised under the same contention that caused the drop.
		net.enqueueTx(u, txItem{
			session: e.session,
			pkt:     st.sentPkt,
			to:      e.peer,
			attempt: e.attempt,
		})
		return
	}
	arrive := net.now + net.Cfg.TransmitDelay
	if net.Cfg.TxJitter > 0 {
		// Recovery retransmissions jitter from the fault stream so they
		// never perturb the jitter draws of regular transmissions.
		arrive += net.rngs.fault.Float64() * net.Cfg.TxJitter
	}
	net.retransmits++
	net.copies++
	net.seq++
	net.pushEvent(event{
		at:   arrive,
		seq:  net.seq,
		kind: eventReceive,
		node: e.peer,
		receipt: Receipt{
			From:   u,
			At:     arrive,
			Packet: st.sentPkt,
		},
		attempt: e.attempt,
		session: e.session,
	})
}

func (net *Network) result() Result {
	res := net.tally()
	res.Forward = make([]int, len(net.forward))
	copy(res.Forward, net.forward)
	net.arena.forward = net.forward[:0]
	for v := range net.nodes {
		if net.nodes[v].Received {
			res.Delivered++
		}
	}
	if net.plan == nil {
		// No faults: every node is reachable (or at least scored; a
		// disconnected input graph is a workload property, not a fault).
		res.Reachable = res.N
		res.DeliveredReachable = res.Delivered
	} else {
		reach := net.plan.ReachableFrom(net.G, net.Source)
		for v, ok := range reach {
			if !ok {
				continue
			}
			res.Reachable++
			if net.nodes[v].Received {
				res.DeliveredReachable++
			}
		}
	}
	if debugChecks && !res.Conserved() {
		panic(fmt.Sprintf("sim: drop accounting broken: receipts %d + lost %d + collided %d + faultDrops %d != copies %d",
			res.Receipts, res.Lost, res.Collided, res.FaultDrops(), res.Copies))
	}
	if m := net.Cfg.Metrics; m != nil {
		res.Record(m, net.viewGraphOf, net.Cfg.ViewIncomplete, net.Cfg.DynamicHello)
	}
	return res
}

// tally returns the run's channel accounting as a Result, sharing the
// forward list with the network: everything but the delivery and
// reachability scoring, which single and traffic runs do their own way.
func (net *Network) tally() Result {
	return Result{
		Forward:         net.forward,
		N:               net.G.N(),
		Finish:          net.now,
		Receipts:        net.receipts,
		Copies:          net.copies,
		Lost:            net.lost,
		Collided:        net.collided,
		DroppedNodeDown: net.droppedNodeDown,
		DroppedLinkDown: net.droppedLinkDown,
		TimersCancelled: net.timersCancelled,
		NACKs:           net.nacks,
		Retransmits:     net.retransmits,
		QueueDrops:      net.queueDrops,
		MACDeferrals:    net.macDeferrals,
	}
}

// Record copies the run's outcome into m. It is the one mapping from a
// simulator-format result to an obsv run record: Run, RunTraffic and the
// live runtime.Cluster all use it, each after scoring Reachable and
// DeliveredReachable its own way. With incomplete (Config.ViewIncomplete)
// or dyn (Config.DynamicHello) set it also counts the nodes whose view,
// viewOf(v), is incomplete or went stale at any point up to Finish — a
// pure function of (views, seed, finish time), so the count is engine- and
// schedule-independent and a seed-matched live run computes the identical
// value.
func (r Result) Record(m *obsv.RunRecord, viewOf func(v int) *graph.Graph, incomplete func(v int) bool, dyn *hello.Dynamic) {
	m.N = r.N
	m.Delivered = r.Delivered
	m.Forward = len(r.Forward)
	m.Copies = r.Copies
	m.Receipts = r.Receipts
	m.Lost = r.Lost
	m.Collided = r.Collided
	m.DroppedNodeDown = r.DroppedNodeDown
	m.DroppedLinkDown = r.DroppedLinkDown
	m.TimersCancelled = r.TimersCancelled
	m.NACKs = r.NACKs
	m.Retransmits = r.Retransmits
	m.QueueDrops = r.QueueDrops
	m.MACDeferrals = r.MACDeferrals
	m.Reachable = r.Reachable
	m.DeliveredReachable = r.DeliveredReachable
	m.Finish = r.Finish
	for v := 0; v < r.N; v++ {
		if incomplete != nil && incomplete(v) {
			m.ViewIncompleteNodes++
		}
		if dyn != nil && dyn.ViewEverStale(viewOf(v), v, r.Finish) {
			m.StaleViewHolds++
		}
	}
}

// Now returns the current simulation time.
func (net *Network) Now() float64 { return net.now }

// Evaluator returns this run's shared coverage-condition evaluator. Protocol
// callbacks run sequentially, so every node decision of the run reuses one
// set of scratch buffers instead of allocating per evaluation. The parallel
// precompute phase never touches this instance — its workers get private
// evaluators.
func (net *Network) Evaluator() *core.Evaluator {
	return net.arena.evaluator(net.G.N())
}

// State returns the simulator state of node v. The returned pointer stays
// valid for the whole run (node states live in one flat array that is never
// reallocated after setup).
func (net *Network) State(v int) *NodeState { return &net.nodes[v] }

// TakePreparedCovered returns and consumes the precomputed coverage verdict
// for node v's pending timer, if the fast engine's parallel phase produced
// one for the current instant. Protocols consult it at the top of their timer
// coverage evaluation (see the protocol engine); for sequential runs it
// always reports ok=false.
func (net *Network) TakePreparedCovered(v int) (covered, ok bool) {
	if net.prepared == nil || net.prepared[v] < 0 {
		return false, false
	}
	covered = net.prepared[v] == 1
	net.prepared[v] = -1
	return covered, true
}

// RandomBackoff draws a uniform backoff delay from [0, BackoffWindow).
func (net *Network) RandomBackoff() float64 {
	return net.rngs.backoff.Float64() * net.Cfg.BackoffWindow
}

// DegreeBackoff returns the backoff of the FRBD policy, proportional to the
// inverse of the node degree so that higher-degree nodes decide earlier:
// BackoffWindow * avgDegree / deg(v). The average-degree scaling keeps the
// spread between degree classes larger than the transmission delay, so
// low-degree nodes actually hear their high-degree neighbors forward before
// deciding.
func (net *Network) DegreeBackoff(v int) float64 {
	// Degrees come from the node's (possibly stale or private) knowledge:
	// its own view graph under NodeViews, else the shared view topology.
	vg := net.viewGraphOf(v)
	d := vg.Degree(v)
	if d == 0 {
		return net.Cfg.BackoffWindow
	}
	return net.Cfg.BackoffWindow * vg.AverageDegree() / float64(d)
}

// viewGraphOf returns the topology node v's knowledge is built from.
func (net *Network) viewGraphOf(v int) *graph.Graph {
	if net.nodeView != nil {
		return net.nodeView[v]
	}
	return net.viewG
}

// ConservativeHold reports whether node v must refuse non-forward status: the
// conservative fallback is enabled and v knows its own view may be missing
// links (ViewIncomplete) or provably stale (DynamicHello expiry), so any "I
// am covered" conclusion it draws is untrustworthy. Protocols consult this
// wherever a coverage condition would justify non-forward status (see the
// protocol engine). The check is a pure function of (v, net.now) — the fast
// engine's precompute workers call it concurrently.
func (net *Network) ConservativeHold(v int) bool {
	if !net.Cfg.ConservativeFallback {
		return false
	}
	if net.Cfg.ViewIncomplete != nil && net.Cfg.ViewIncomplete(v) {
		return true
	}
	return net.viewStale(v, net.now)
}

// viewStale reports whether node v's dynamic-hello view is stale at time t:
// some view-neighbor has not been heard from for longer than the expiry.
// Pure (no state mutated), so it is safe from the precompute workers and
// yields the same verdicts in seed-matched live runs.
func (net *Network) viewStale(v int, t float64) bool {
	d := net.Cfg.DynamicHello
	return d != nil && d.ViewStale(net.viewGraphOf(v), v, t)
}

// SetTimer schedules an OnTimer callback for node v after delay (>= 0).
func (net *Network) SetTimer(v int, delay float64) {
	if delay < 0 {
		delay = 0
	}
	net.seq++
	net.pushEvent(event{
		at:   net.now + delay,
		seq:  net.seq,
		kind: eventTimer,
		node: v,
	})
}

// MarkNonForward finalizes a non-forward decision for v.
func (net *Network) MarkNonForward(v int) {
	if debugChecks && net.ConservativeHold(v) {
		panic(fmt.Sprintf("sim: conservative-fallback node %d took non-forward status", v))
	}
	st := &net.nodes[v]
	if !st.NonForward {
		net.obsNonForward(0, v)
	}
	st.NonForward = true
}

// Transmit makes node v forward the broadcast packet now, carrying the given
// designated forward set. All neighbors receive a copy after TransmitDelay.
// Repeated transmissions by the same node are ignored (a node forwards at
// most once). A node that is down at transmission time stays silent.
func (net *Network) Transmit(v int, designated []int) {
	net.TransmitExtra(v, designated, nil)
}

// TransmitExtra is Transmit with a protocol-specific extra payload attached
// to the packet.
func (net *Network) TransmitExtra(v int, designated, extra []int) {
	net.transmitExtra(0, v, designated, extra)
}

// transmitExtra is the session-aware transmit path shared by the network's
// own Runtime surface (session 0) and the per-session runtimes of traffic
// runs. Under the contention MAC the packet is handed to the node's transmit
// queue instead of going on the air immediately.
func (net *Network) transmitExtra(sid int32, v int, designated, extra []int) {
	st := net.stateOf(sid, v)
	if st.Sent || net.down(v) {
		return
	}
	st.Sent = true
	st.View.MarkVisited(v)
	if net.Cfg.CarrierSense {
		// The forward decision is final (Sent above), but the packet is
		// built now and transmitted by the MAC when the channel allows:
		// forward-order bookkeeping, observers, and metrics fire at actual
		// transmission time (see emitTx).
		pkt := st.BuildForwardPacket(designated, extra, net.Cfg.PiggybackDepth)
		net.enqueueTx(v, txItem{
			session:    sid,
			pkt:        pkt,
			designated: append([]int(nil), designated...),
			to:         -1,
		})
		return
	}
	net.forward = append(net.forward, v)
	net.obsTransmit(sid, v, designated)
	if net.Cfg.Metrics != nil {
		net.Cfg.Metrics.ForwardSet.Observe(float64(len(designated)))
	}

	pkt := st.BuildForwardPacket(designated, extra, net.Cfg.PiggybackDepth)
	arrive := net.now + net.Cfg.TransmitDelay
	if net.Cfg.TxJitter > 0 {
		// One jitter draw per transmission: all neighbors hear the same
		// (delayed) transmission at the same instant.
		arrive += net.rngs.jitter.Float64() * net.Cfg.TxJitter
	}
	net.G.ForEachNeighbor(v, func(u int) {
		net.copies++
		net.seq++
		net.pushEvent(event{
			at:   arrive,
			seq:  net.seq,
			kind: eventReceive,
			node: u,
			receipt: Receipt{
				From:   v,
				At:     arrive,
				Packet: pkt,
			},
			session: sid,
		})
	})
}

// pushEvent enqueues e on whichever event queue the selected engine uses. The
// fast engine's calendar queue stores events by value in reusable buckets;
// the oracle allocates per push, exactly as the original simulator did.
func (net *Network) pushEvent(e event) {
	if net.fast {
		net.arena.cal.push(e)
		return
	}
	ec := e
	heap.Push(&net.queue, &ec)
}
