package sim_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestReusedArenaAllocs pins the Arena's allocation-free steady state: once
// an arena has served a set of broadcasts, serving them again (Generic-FR,
// d=18) allocates only the Network value and the Result.Forward copy per
// broadcast. Trails, the forward list, the random streams and node state
// all come from the arena; before it owned them, a broadcast allocated one
// trail per forwarder. Replaying a fixed cycle of (source,
// seed) pairs keeps the per-node receipt logs, which keep their capacity
// across runs, from growing during the measurement. Protocols are built
// outside it, since their per-run state is their own.
func TestReusedArenaAllocs(t *testing.T) {
	const cycle = 8
	net, err := geo.Generate(geo.Config{N: 1000, AvgDegree: 18}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	arena := sim.NewArena()
	protos := make([]sim.Protocol, 3*cycle)
	for i := range protos {
		protos[i] = protocol.Generic(protocol.TimingFirstReceipt)
	}
	run := 0
	broadcast := func() {
		k := run % cycle
		res, err := sim.RunWith(arena, net.G, k*97, protos[run], sim.Config{Hops: 2, Seed: int64(k + 1)})
		run++
		if err != nil {
			t.Fatal(err)
		}
		if !res.FullDelivery() {
			t.Fatalf("delivered %d/%d", res.Delivered, res.N)
		}
	}
	for run < cycle {
		broadcast()
	}
	// AllocsPerRun makes one extra warm-up call before the measured ones.
	if got := testing.AllocsPerRun(2*cycle-1, broadcast); got != 2 {
		t.Errorf("reused-arena broadcast allocates %v times, want 2 (Network, Result.Forward)", got)
	}
}
