package fleet

import (
	"fmt"

	"codetomo/internal/stats"
	"codetomo/internal/trace"
)

// ARQConfig tunes selective-repeat retransmission on the uplink: after
// each round the base station NACKs every sequence number it did not
// receive intact, and the mote resends those frames through the same
// channel. The protocol is deterministic — retry rounds draw from the
// same channel RNG stream, and backoff is accounted in ticks rather than
// waited in wall time.
type ARQConfig struct {
	// MaxRetries bounds the retransmission rounds per uplink; 0 disables
	// ARQ entirely.
	MaxRetries int
	// BackoffBaseTicks is the base of the exponential backoff between
	// rounds: round k charges BackoffBaseTicks << (k-1) ticks to the
	// ARQStats (default 64). This models the radio's contention window;
	// it never sleeps.
	BackoffBaseTicks uint64
}

// Enabled reports whether any retransmission rounds may run.
func (a ARQConfig) Enabled() bool { return a.MaxRetries > 0 }

// ARQStats is the recovery protocol's accounting for one mote's upload
// (or, summed, for a fleet).
type ARQStats struct {
	// Rounds counts retransmission rounds that actually ran; Nacked is
	// the total sequence numbers NACKed across them (a sequence NACKed in
	// two rounds counts twice); Retransmissions is the frames resent.
	Rounds, Nacked, Retransmissions int
	// Recovered counts sequences missing after the initial pass that an
	// ARQ round eventually delivered intact; Unrecovered is what was
	// still missing when retries ran out.
	Recovered, Unrecovered int
	// BackoffTicks is the total simulated backoff charged across rounds.
	BackoffTicks uint64
}

// Add accumulates another mote's recovery accounting.
func (a *ARQStats) Add(o ARQStats) {
	a.Rounds += o.Rounds
	a.Nacked += o.Nacked
	a.Retransmissions += o.Retransmissions
	a.Recovered += o.Recovered
	a.Unrecovered += o.Unrecovered
	a.BackoffTicks += o.BackoffTicks
}

// arq pushes one mote's packetized upload through the channel with
// selective-repeat recovery, appending the deliveries to l.delivered. frames
// must be the mote's packet frames in sequence order (frame i carries
// sequence number i, as Packetize produces), and rx the base station's
// fresh receive window for that mote: every delivery goes once into rx,
// and each round NACKs the sequences rx still lacks. The deliveries —
// including corrupt ones the base station rejected, and late duplicates —
// are kept in arrival order. A CRC-valid frame rx refuses (another mote's)
// is an error. With ARQ disabled this is one transmit feeding rx.
//
// pkts, when not nil, are the packets frames encode (pkts[i] is frame i
// before AppendBinary). A delivery the link passed unchanged then enters
// rx as its sender's packet through Reassembler.Add, with no CRC check or
// decode: its bytes are the sender's, whose CRC the sender computed over
// those very records. Every flipped delivery, and every delivery when pkts
// is nil, goes through AddFrame's full framing and CRC check.
func (l *link) arq(lc LinkConfig, frames [][]byte, pkts []trace.Packet, rng *stats.RNG, rx *trace.Reassembler) (LinkStats, ARQStats, error) {
	var ast ARQStats
	first := len(l.delivered)
	st := l.transmit(lc, frames, nil, rng)
	if err := l.receive(rx, first, pkts); err != nil {
		return st, ast, err
	}
	if !lc.ARQ.Enabled() || len(frames) == 0 {
		return st, ast, nil
	}

	nack := func() int {
		l.nack = l.nack[:0]
		for s := range frames {
			if !rx.Has(uint32(s)) {
				l.nack = append(l.nack, int32(s))
			}
		}
		return len(l.nack)
	}
	initialMissing := nack()

	base := lc.ARQ.BackoffBaseTicks
	if base == 0 {
		base = 64
	}
	for round := 1; round <= lc.ARQ.MaxRetries && len(l.nack) > 0; round++ {
		ast.Rounds++
		ast.Nacked += len(l.nack)
		ast.BackoffTicks += base << uint(round-1)
		ast.Retransmissions += len(l.nack)
		// LinkStats.Sent ends up counting every transmission, resends
		// included — goodput is measured against radio airtime.
		n := len(l.delivered)
		st.Add(l.transmit(lc, frames, l.nack, rng))
		if err := l.receive(rx, n, pkts); err != nil {
			return st, ast, err
		}
		nack()
	}
	ast.Recovered = initialMissing - len(l.nack)
	ast.Unrecovered = len(l.nack)
	return st, ast, nil
}

// receive feeds the deliveries from first on to the receive window.
func (l *link) receive(rx *trace.Reassembler, first int, pkts []trace.Packet) error {
	for i := first; i < len(l.delivered); i++ {
		var err error
		if s := l.clean[i]; s >= 0 && pkts != nil {
			err = rx.Add(pkts[s])
		} else {
			err = rx.AddFrame(l.delivered[i])
		}
		if err != nil {
			return fmt.Errorf("fleet: receive window: %w", err)
		}
	}
	return nil
}
