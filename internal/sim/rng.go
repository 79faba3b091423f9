package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// streams holds the per-purpose random streams of one run, all derived from
// Config.Seed. Splitting the single historical rng means enabling one
// stochastic model (say loss) no longer shifts the draws of another (say
// backoff): each consumer owns its sequence. The backoff stream is seeded
// with Seed directly — in runs without jitter or loss it was the only
// consumer of the old shared rng, so those runs (every paper figure) stay
// bit-identical across the split.
type streams struct {
	backoff *rand.Rand // backoff-timing delays (FRB)
	jitter  *rand.Rand // per-transmission forwarding jitter
	loss    *rand.Rand // per-receipt loss draws
	fault   *rand.Rand // recovery-layer draws (retransmission jitter)
	mac     *rand.Rand // contention-MAC slotted-backoff draws (CarrierSense)
}

// reset seeds the streams for a run with the given seed and configuration,
// restarting each exactly as a fresh rand.New(rand.NewSource(...)) would.
// Sources are created on first need and reseeded in place afterwards, so an
// arena's runs allocate none in steady state; a stream whose model the
// configuration leaves off is not created (it would never be drawn from).
func (s *streams) reset(seed int64, c Config) {
	s.backoff = seeded(s.backoff, seed)
	if c.TxJitter > 0 {
		s.jitter = seeded(s.jitter, subSeed(seed, "jitter"))
		s.fault = seeded(s.fault, subSeed(seed, "fault"))
	}
	if c.LossRate > 0 {
		s.loss = seeded(s.loss, subSeed(seed, "loss"))
	}
	if c.CarrierSense {
		s.mac = seeded(s.mac, subSeed(seed, "mac"))
	}
}

func seeded(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}

// subSeed maps (seed, purpose) to an independent stream seed.
func subSeed(seed int64, purpose string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(purpose))
	return int64(h.Sum64() & (1<<62 - 1))
}
