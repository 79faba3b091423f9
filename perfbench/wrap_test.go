package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/runtime"
	"adhocbcast/internal/sim"
)

// TestWrapperFidelity runs every registered protocol plain and behind the
// timing wrapper on one 100-node network, with Workers 1 and 2, and requires
// the same sim.Result and the same recorded event trace.
func TestWrapperFidelity(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 100, AvgDegree: 6, Seed: defaultSeed}, rand.New(rand.NewSource(defaultSeed)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range protocol.Names() {
		mk, _ := protocol.ByName(name)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				run := func(p sim.Protocol) (sim.Result, []sim.TraceEvent) {
					rec := &sim.Recorder{}
					res, err := sim.Run(net.G, 7, p, sim.Config{Hops: 2, Workers: workers, Seed: 3, Observer: rec})
					if err != nil {
						t.Fatal(err)
					}
					return res, rec.Events()
				}
				led := &protoLedger{}
				plain := mk()
				wrapped := wrapProtocol(mk(), led)
				pa, pb := implements(plain)
				if wa, wb := implements(wrapped); pa != wa || pb != wb {
					t.Fatalf("wrapper implements (TimerPrecomputer, NonDesignating) = (%v, %v), protocol (%v, %v)",
						wa, wb, pa, pb)
				}
				wantRes, wantTrace := run(plain)
				gotRes, gotTrace := run(wrapped)
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("result differs:\nwrapped %+v\nplain   %+v", gotRes, wantRes)
				}
				if !reflect.DeepEqual(gotTrace, wantTrace) {
					t.Fatalf("trace differs: wrapped %d events, plain %d", len(gotTrace), len(wantTrace))
				}
				if led.calls.Load() == 0 {
					t.Fatal("wrapper recorded no protocol calls")
				}
			})
		}
	}
}

func implements(p sim.Protocol) (timerPrecomputer, nonDesignating bool) {
	_, timerPrecomputer = p.(sim.TimerPrecomputer)
	_, nonDesignating = p.(sim.NonDesignating)
	return
}

// TestWrapperLiveCluster runs the wrapper in the live cluster, where every
// node goroutine books into one ledger (run it with -race).
func TestWrapperLiveCluster(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6, Seed: defaultSeed}, rand.New(rand.NewSource(defaultSeed)))
	if err != nil {
		t.Fatal(err)
	}
	led := &protoLedger{}
	cl, err := runtime.New(net.G, runtime.Config{
		Protocol: func() sim.Protocol { return wrapProtocol(newFRB(), led) },
		Hops:     2,
		Seed:     defaultSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Broadcast(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}
	if led.calls.Load() < int64(res.N) || led.selfNS.Load() <= 0 {
		t.Fatalf("ledger recorded %d calls, %d ns of protocol time", led.calls.Load(), led.selfNS.Load())
	}
}
