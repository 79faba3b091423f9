package main

import "runtime/metrics"

// goSnap is a snapshot of the Go runtime's cumulative allocation and CPU
// accounting, read through runtime/metrics.
type goSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readGo() goSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	return g
}

// recordGo books the Go runtime metrics of the interval since start, over
// ops operations, into layer.
func recordGo(layer map[string]float64, start goSnap, ops int) {
	end := readGo()
	if ops > 0 {
		layer["go.alloc_mb_per_op"] = float64(end.allocBytes-start.allocBytes) / (1 << 20) / float64(ops)
	}
	if cpu := end.totalCPU - start.totalCPU; cpu > 0 {
		layer["go.gc_cpu_pct"] = 100 * (end.gcCPU - start.gcCPU) / cpu
	}
}
