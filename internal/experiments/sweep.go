package experiments

import (
	"fmt"
	"sync"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
)

// variant is one curve of a figure: a legend label, a protocol factory, and
// the simulator configuration every replicate of the curve starts from.
type variant struct {
	label string
	make  func() sim.Protocol
	cfg   sim.Config
}

// generic returns the factory of the generic protocol with timing t.
func generic(t protocol.Timing) func() sim.Protocol {
	return func() sim.Protocol { return protocol.Generic(t) }
}

// point declares one data point of a sweep.
type point struct {
	// label names the point in progress updates, trace files and grid
	// cache keys.
	label string
	// x is the point's X coordinate in the rendered figure.
	x int
	// n and d select the workload cell every replicate draws from.
	n, d int
	// salt is XORed into every workload seed of the point. Only the
	// reliability sweep sets it, to draw fresh networks per jitter value.
	salt int64
	// sample measures one replicate.
	sample func(r *replicate) (float64, error)
}

// sweep is the one driver behind every CI-replicated figure and extension.
// A figure declares its panels, series and points in order (panel, series,
// add); run then measures every point on a pool of rc.Parallelism workers
// and fills in the declared Figure. Replicate i of every point in a workload
// cell draws the same network and source (common random numbers), and each
// point is a pure function of its declaration, so the schedule never
// changes the results.
type sweep struct {
	rc    RunConfig
	fig   Figure
	slots []slot
}

// slot places one declared point in the figure.
type slot struct {
	panel, series, index int
	p                    point
}

// newSweep starts the declaration of a figure; rc must carry its defaults.
func newSweep(rc RunConfig, id, title, unit string) *sweep {
	return &sweep{rc: rc, fig: Figure{ID: id, Title: title, Unit: unit}}
}

// panel opens a new panel.
func (s *sweep) panel(title string) {
	s.fig.Panels = append(s.fig.Panels, Panel{Title: title})
}

// series opens a new series in the current panel.
func (s *sweep) series(label string) {
	p := &s.fig.Panels[len(s.fig.Panels)-1]
	p.Series = append(p.Series, Series{Label: label})
}

// add appends a point to the current series.
func (s *sweep) add(p point) {
	pi := len(s.fig.Panels) - 1
	si := len(s.fig.Panels[pi].Series) - 1
	sr := &s.fig.Panels[pi].Series[si]
	sr.Points = append(sr.Points, Point{X: p.x})
	s.slots = append(s.slots, slot{panel: pi, series: si, index: len(sr.Points) - 1, p: p})
}

// sizes adds one panel in which every variant sweeps rc.Sizes at degree d,
// measured by the forward-node count of fully delivered broadcasts — the
// shape of the paper's figures. Points are labelled
// "<prefix>/<title>/<variant>/n=<n>/d=<d>".
func (s *sweep) sizes(prefix, title string, d int, variants []variant) {
	s.panel(title)
	for _, v := range variants {
		s.series(v.label)
		for _, n := range s.rc.Sizes {
			s.add(point{
				label:  fmt.Sprintf("%s/%s/%s/n=%d/d=%d", prefix, title, v.label, n, d),
				x:      n,
				n:      n,
				d:      d,
				sample: forwardCount(v),
			})
		}
	}
}

// extension declares the layout most extensions share: per degree a panel
// "d=<d>, n=100, 2-hop", per variant a series whose points cell adds.
func (s *sweep) extension(variants []variant, cell func(v variant, d int)) {
	for _, d := range s.rc.Degrees {
		s.panel(fmt.Sprintf("d=%d, n=100, 2-hop", d))
		for _, v := range variants {
			s.series(v.label)
			cell(v, d)
		}
	}
}

// forwardCount is the sample of the paper's figures: the forward-node count
// of one broadcast of v, which must reach every node.
func forwardCount(v variant) func(r *replicate) (float64, error) {
	return func(r *replicate) (float64, error) {
		res, err := r.run(r.w.net.G, v.make(), v.cfg)
		if err != nil {
			return 0, err
		}
		if !res.FullDelivery() {
			return 0, fmt.Errorf("experiments: %s delivered %d/%d (rep=%d)", v.label, res.Delivered, res.N, r.i)
		}
		return float64(res.ForwardCount()), nil
	}
}

// run measures every declared point on the worker pool and returns the
// filled-in figure, or the first failing point's error in declaration
// order.
func (s *sweep) run() (Figure, error) {
	errs := make([]error, len(s.slots))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(s.rc.Parallelism, len(s.slots)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sl := s.slots[j]
				sum, err := s.summarize(sl.p)
				if err != nil {
					// Each job owns its error slot; the pool keeps
					// draining so it always terminates.
					errs[j] = fmt.Errorf("%s: %w", sl.p.label, err)
					continue
				}
				pt := &s.fig.Panels[sl.panel].Series[sl.series].Points[sl.index]
				pt.Mean, pt.CI, pt.Runs = sum.Mean, sum.HalfWidth90, sum.N
			}
		}()
	}
	for j := range s.slots {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Figure{}, err
		}
	}
	return s.fig, nil
}

// summarize runs one point's replication loop, through the serial or the
// parallel engine according to ReplicateParallelism (both produce
// bit-identical summaries and progress sequences) and through the Runner
// hook when one is set, exporting each traced replicate to the point's
// trace sink.
func (s *sweep) summarize(p point) (stats.Summary, error) {
	rc := s.rc
	sink := rc.newTraceSink(p.label)
	sample := func(i int) (float64, error) {
		seed := workloadSeed(rc.Seed, p.n, p.d, i) ^ p.salt
		w, err := workloads.get(workloadKey{seed: seed, n: p.n, d: p.d})
		if err != nil {
			return 0, err
		}
		r := &replicate{i: i, seed: seed, w: w, traced: sink != nil}
		x, err := p.sample(r)
		if err == nil && r.metrics != nil {
			err = sink.write(i, r.metrics, r.rec.Records())
		}
		return x, err
	}
	compute := func() (stats.Summary, error) {
		opts := rc.Replicate
		if rc.Progress != nil {
			opts.Progress = func(u stats.ProgressUpdate) { rc.Progress(p.label, u) }
		}
		if rc.ReplicateParallelism > 1 {
			return stats.RunUntilCIParallel(opts, rc.ReplicateParallelism, sample)
		}
		return stats.RunUntilCI(opts, sample)
	}
	var sum stats.Summary
	var err error
	if rc.Runner != nil {
		sum, err = rc.Runner(p.label, compute)
	} else {
		sum, err = compute()
	}
	return sum, sink.finish(err)
}

// replicate is one replication of a data point as the driver hands it to
// the point's sample function.
type replicate struct {
	// i is the replication index.
	i int
	// seed is the workload seed; w is the cached workload it selects.
	seed int64
	w    workload
	// traced is set when the point exports a trace; run then fills rec and
	// metrics, which the driver writes out once the sample returns.
	traced  bool
	rec     *sim.Recorder
	metrics *obsv.RunRecord
}

// run broadcasts protocol p from the workload's source over g with cfg,
// seeded one past the workload seed. With tracing on it attaches a run
// record and, unless cfg already carries one, a trace recorder; neither
// changes the result.
func (r *replicate) run(g *graph.Graph, p sim.Protocol, cfg sim.Config) (sim.Result, error) {
	cfg.Seed = r.seed + 1
	if r.traced {
		rec, ok := cfg.Observer.(*sim.Recorder)
		if !ok {
			rec = &sim.Recorder{}
			cfg.Observer = rec
		}
		r.rec, r.metrics = rec, obsv.NewRunRecord()
		cfg.Metrics = r.metrics
	}
	return sim.Run(g, r.w.source, p, cfg)
}
