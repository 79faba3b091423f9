package sim

// TrailEntry records one recently visited node carried in a broadcast
// packet, together with the designated forward set that node selected (see
// Figure 5 of the paper).
type TrailEntry struct {
	// Node is the visited node's id.
	Node int
	// Designated lists the forward neighbors Node selected, if any.
	Designated []int
}

// Packet is one copy of the broadcast packet as delivered to a neighbor.
type Packet struct {
	// Source is the broadcast originator.
	Source int
	// Session is the broadcast session id the packet belongs to (0 outside
	// multi-session traffic runs). BuildForwardPacket propagates it from
	// the delivered copy, so forwards and recovery retransmissions stay
	// tagged end to end.
	Session int
	// Trail lists the h most recently visited nodes, oldest first; the last
	// entry is the transmitting node itself.
	Trail []TrailEntry
	// Extra is an optional protocol-specific payload (e.g. TDP piggybacks
	// the sender's 2-hop neighbor set).
	Extra []int
}

// Sender returns the transmitting node of this packet copy.
func (p Packet) Sender() int {
	if len(p.Trail) == 0 {
		return p.Source
	}
	return p.Trail[len(p.Trail)-1].Node
}

// SenderDesignated returns the designated forward set selected by the
// transmitting node.
func (p Packet) SenderDesignated() []int {
	if len(p.Trail) == 0 {
		return nil
	}
	return p.Trail[len(p.Trail)-1].Designated
}

// Receipt is the delivery of one packet copy to a node.
type Receipt struct {
	// From is the transmitting neighbor.
	From int
	// At is the delivery time.
	At float64
	// Packet is the delivered packet.
	Packet Packet
}

// trailSlab is an arena's run-scoped storage for the trails of forward
// packets (see BuildForwardPacket). It carves fixed-capacity slices out of
// chunks it keeps across runs, and the arena resets it when its next run
// starts, so reused-arena runs allocate no trails once the chunks have grown
// to a run's needs. A nil *trailSlab allocates each trail instead; that is
// the storage of node states outside an arena (the live runtime).
type trailSlab struct {
	chunks [][]TrailEntry
	cur    int // chunk being carved
	off    int // entries of chunks[cur] handed out
}

// firstTrailChunk is the entry count of a trailSlab's first chunk; each
// further chunk doubles the last, so a slab holds at most about twice the
// largest run's trails and a fresh arena serving one small run stays small.
const firstTrailChunk = 32

// take returns an empty trail with capacity n that no other trail taken
// since the last reset overlaps.
func (s *trailSlab) take(n int) []TrailEntry {
	if s == nil {
		return make([]TrailEntry, 0, n)
	}
	for {
		if s.cur == len(s.chunks) {
			size := firstTrailChunk
			if k := len(s.chunks); k > 0 {
				size = 2 * len(s.chunks[k-1])
			}
			s.chunks = append(s.chunks, make([]TrailEntry, max(size, n)))
		}
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off : s.off+n]
			s.off += n
			return out
		}
		s.cur, s.off = s.cur+1, 0
	}
}

// reset makes every chunk available again; trails taken before must no
// longer be used.
func (s *trailSlab) reset() { s.cur, s.off = 0, 0 }
