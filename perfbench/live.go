package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/runtime"
	"adhocbcast/internal/sim"
)

// live-cluster: waves of Generic-FRB through the goroutine cluster at n=200,
// d=6, with 5% per-copy drops and NACK recovery. Waves rotate over a few
// clusters, each on its own network, so one network's diameter does not set
// the run's latency.
const (
	liveN        = 200
	liveDegree   = 6
	liveClusters = 16
	liveSources  = 4 // sources per cluster
	liveSetups   = 9
	livePass     = 10 // waves per regen_s pass
	livePrefix   = 50 // waves the simulated metrics are taken over
	liveReplay   = 40 // waves replayed traced
	// liveTimeScale is runtime.Config's default TimeScale, spelled out so
	// the lag metric can convert simulated time to wall time.
	liveTimeScale = 2 * time.Millisecond
)

type liveNet struct {
	seed    int64
	g       *graph.Graph
	sources []int
}

type liveState struct {
	nets     []liveNet
	clusters []*runtime.Cluster
	rec      *obsv.RunRecord
}

// newClusters builds one cluster per network running proto.
func (st *liveState) newClusters(e *env, proto func() sim.Protocol) ([]*runtime.Cluster, error) {
	var out []*runtime.Cluster
	for _, net := range st.nets {
		var cl *runtime.Cluster
		err := e.tr.timed(net.seed, -1, "runtime.New", func() (err error) {
			cl, err = runtime.New(net.g, liveConfig(net.seed, st.rec, proto))
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, cl)
	}
	return out, nil
}

func liveConfig(seed int64, rec *obsv.RunRecord, proto func() sim.Protocol) runtime.Config {
	return runtime.Config{
		Protocol:     proto,
		Hops:         2,
		TimeScale:    liveTimeScale,
		Seed:         seed,
		Nemesis:      runtime.Nemesis{DropRate: 0.05},
		NACKRecovery: true,
		Metrics:      rec,
	}
}

func liveSetup(e *env) (*liveState, error) {
	st := &liveState{rec: obsv.NewRunRecord()}
	for k := 0; k < liveClusters; k++ {
		seed := e.seed*liveClusters + int64(k)
		rng := rand.New(rand.NewSource(seed))
		var net *geo.Network
		err := e.tr.timed(seed, -1, "geo.Generate", func() (err error) {
			net, err = geo.Generate(geo.Config{N: liveN, AvgDegree: liveDegree, Seed: seed}, rng)
			return err
		})
		if err != nil {
			return nil, err
		}
		ln := liveNet{seed: seed, g: net.G}
		for i := 0; i < liveSources; i++ {
			ln.sources = append(ln.sources, rng.Intn(liveN))
		}
		st.nets = append(st.nets, ln)
	}
	var err error
	st.clusters, err = st.newClusters(e, newFRB)
	return st, err
}

// wave is one checked broadcast through the cluster.
type wave struct {
	wall   time.Duration
	res    sim.Result
	record obsv.RunRecord
	failed bool
}

// wave broadcasts op's wave on clusters[op mod liveClusters] from the next
// of that network's sources.
func (st *liveState) wave(e *env, op int64, clusters []*runtime.Cluster) wave {
	k := int(op) % liveClusters
	source := st.nets[k].sources[int(op)/liveClusters%liveSources]
	root := e.tr.begin(op, -1, "op")
	id := e.tr.begin(op, root, "Cluster.Broadcast")
	t0 := time.Now()
	res, err := clusters[k].Broadcast(source, nil)
	w := wave{wall: time.Since(t0), res: res}
	e.tr.end(id)
	e.tr.end(root)
	w.record = *st.rec
	w.record.Latency.Counts = append([]uint64(nil), st.rec.Latency.Counts...)
	switch {
	case err != nil:
		w.failed = true
		fmt.Fprintf(os.Stderr, "perfbench: wave %d: %v\n", op, err)
	case !res.FullDelivery():
		w.failed = true
		fmt.Fprintf(os.Stderr, "perfbench: wave %d delivered %d/%d\n", op, res.Delivered, res.N)
	}
	return w
}

func runLiveCluster(e *env) (*report, error) {
	rep := newReport()
	st, setup, err := repeatSetup(liveSetups, func() (*liveState, error) { return liveSetup(e) })
	if err != nil {
		return nil, err
	}
	budget := e.budget
	if e.traced() {
		budget /= 2
	}
	var waves []wave
	plain := e.untraced()
	u0, g0 := readUsage(), readGo()
	times, _ := closedLoop(budget, livePrefix, func(i int) error {
		waves = append(waves, st.wave(plain, int64(i), st.clusters))
		return nil
	})
	u1 := readUsage()
	recordGo(rep.layer, g0, len(waves))
	rep.attempted += len(waves)
	var p99 []float64
	var fwd, delivered, n float64
	waveMS := make([]float64, len(waves))
	var total time.Duration
	for i, w := range waves {
		if w.failed {
			rep.failed++
		}
		waveMS[i] = ms(times[i])
		total += times[i]
		if i < livePrefix {
			fwd += float64(w.res.ForwardCount()) / float64(w.res.N)
			delivered += float64(w.res.Delivered)
			n += float64(w.res.N)
			p99 = append(p99, histQuantile(w.record.Latency, 0.99))
		}
	}
	rep.endToEnd = map[string]float64{
		"setup_s":           setup,
		"peak_rss_mb":       u1.peakMB,
		"cpu_ms_per_op":     ms(u1.cpu-u0.cpu) / float64(len(waves)),
		"regen_s":           median(passes(times, livePass)),
		"bcast_ms_p50":      median(waveMS),
		"sessions_per_s":    float64(len(waves)) / total.Seconds(),
		"wave_ms_p50":       median(waveMS),
		"wave_ms_p90":       quantile(waveMS, 0.9),
		"fwd_ratio":         fwd / livePrefix,
		"delivery_pct":      100 * delivered / n,
		"latency_p99_slots": median(p99),
	}
	if !e.traced() {
		return rep, nil
	}

	var led protoLedger
	clusters, err := st.newClusters(e, func() sim.Protocol { return wrapProtocol(newFRB(), &led) })
	if err != nil {
		return nil, err
	}
	replay := min(liveReplay, len(waves))
	var tracedMS, lag []float64
	var copies, nacks, retx int
	for i := 0; i < replay; i++ {
		w := st.wave(e, int64(i), clusters)
		rep.attempted++
		if w.failed {
			rep.failed++
		}
		tracedMS = append(tracedMS, ms(w.wall))
		lag = append(lag, ms(w.wall)-w.record.Finish*ms(liveTimeScale))
		copies += w.record.Copies
		nacks += w.record.NACKs
		retx += w.record.Retransmits
	}
	r := float64(replay)
	rep.layer["runtime.new_s"] = mean(e.tr.durationsMS("runtime.New")) / 1e3
	rep.layer["runtime.lag_ms_p50"] = median(lag)
	rep.layer["runtime.protocol_self_ms"] = float64(led.selfNS.Load()) / 1e6 / r
	rep.layer["runtime.copies"] = float64(copies) / r
	rep.layer["runtime.nacks"] = float64(nacks) / r
	rep.layer["runtime.retransmits"] = float64(retx) / r
	rep.layer["protocol.self_s"] = float64(led.selfNS.Load()) / 1e9 / r
	rep.layer["protocol.calls"] = float64(led.calls.Load()) / r
	base := median(waveMS[:replay])
	rep.layer["trace.overhead_pct"] = 100 * (median(tracedMS) - base) / base

	var vp viewProbe
	for _, net := range st.nets {
		vp.run(e, -1, net.g, []int{2}, 1)
	}
	vp.record(rep.layer)
	recordGeo(e, rep.layer)
	return rep, nil
}
