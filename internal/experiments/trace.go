package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"adhocbcast/internal/obsv"
)

// traceSink writes the JSONL observability export of one data point: for
// every replicate, one obsv run record followed by the replicate's trace
// events. Replicates may run concurrently (RunUntilCIParallel), so each
// replicate's lines are buffered and appended in one locked write — lines of
// different replicates may interleave in the file, but every line carries its
// (point, rep) key and a single replicate's lines stay contiguous and
// ordered. With no trace directory configured the sink is nil: the sweep
// driver then attaches no recorder and writes nothing, and finish passes the
// measurement's error through.
//
// The sink writes through an obsv.AtomicFile: lines accumulate in a hidden
// temp file and the final <point>.jsonl appears only when the point's last
// replicate has flushed and the stream is sealed with a hash-chain record. A
// sweep killed mid-point therefore leaves at worst a ".tmp-*" file behind —
// never a truncated export that a later obsv.Read would choke on — and every
// published file passes obsv.VerifyChain.
type traceSink struct {
	point string
	path  string
	mu    sync.Mutex
	f     *obsv.AtomicFile // opened by the first write
	w     *obsv.Writer
	err   error // first open or write error; reported once at finish
}

// newTraceSink returns the sink for one data point under c.TraceDir, or nil
// when tracing is off. The file name is derived from the point label, one
// file per data point. Nothing is created until the first replicate writes,
// so a point that traces no broadcast (or is served by a Runner hook without
// computing) publishes no file.
func (c RunConfig) newTraceSink(point string) *traceSink {
	if c.TraceDir == "" {
		return nil
	}
	return &traceSink{point: point, path: filepath.Join(c.TraceDir, sanitizePoint(point)+".jsonl")}
}

// sanitizePoint keeps point labels filesystem-safe.
func sanitizePoint(point string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '=':
			return r
		default:
			return '_'
		}
	}, point)
}

// write appends one replicate's run record and trace events atomically.
func (s *traceSink) write(rep int, rr *obsv.RunRecord, events []obsv.TraceEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.f == nil {
		if s.err = os.MkdirAll(filepath.Dir(s.path), 0o755); s.err == nil {
			s.f, s.err = obsv.CreateAtomic(s.path)
		}
		if s.err != nil {
			return s.err
		}
		s.w = obsv.NewWriter(s.f)
	}
	if err := s.w.Write(obsv.Record{Kind: obsv.KindRun, Point: s.point, Rep: rep, Run: rr}); err != nil {
		s.err = err
		return err
	}
	for i := range events {
		if err := s.w.Write(obsv.Record{Kind: obsv.KindTrace, Point: s.point, Rep: rep, Event: &events[i]}); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// finish completes the sink given the point's measurement error: on failure
// (the measurement's or the sink's own deferred write error) the pending
// temp file is discarded so no partial export is published; on success the
// stream is sealed and atomically renamed into place. It returns the first
// error among the measurement, deferred writes, and publication. Safe on a
// nil sink.
func (s *traceSink) finish(err error) error {
	if s == nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && s.err != nil {
		err = fmt.Errorf("experiments: trace %s: %w", s.point, s.err)
	}
	if s.f == nil {
		return err
	}
	if err != nil {
		s.f.Abort()
		return err
	}
	if serr := s.w.Seal(); serr != nil {
		s.f.Abort()
		return fmt.Errorf("experiments: trace %s: %w", s.point, serr)
	}
	if cerr := s.f.Commit(); cerr != nil {
		return fmt.Errorf("experiments: trace %s: %w", s.point, cerr)
	}
	return nil
}
