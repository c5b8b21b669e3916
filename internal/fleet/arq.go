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

// TransmitARQ pushes one mote's packetized upload through the channel
// with selective-repeat recovery and appends the deliveries to dst.
// frames must be the mote's packet frames in sequence order (frame i
// carries sequence number i, as Packetize produces), and rx the base
// station's fresh receive window for that mote: every delivery is decoded
// once, into rx, and each round NACKs the sequences rx still lacks. The delivered frames — including corrupt ones
// the base station rejected, and late duplicates — are appended in
// arrival order. A CRC-valid frame rx refuses (another mote's) is an
// error. With ARQ disabled this is TransmitFrames feeding rx.
func (lc LinkConfig) TransmitARQ(dst, frames [][]byte, rng *stats.RNG, rx *trace.Reassembler) ([][]byte, LinkStats, ARQStats, error) {
	var ast ARQStats
	delivered, st := lc.TransmitFrames(dst, frames, rng)
	if err := receive(rx, delivered[len(dst):]); err != nil {
		return nil, st, ast, err
	}
	if !lc.ARQ.Enabled() || len(frames) == 0 {
		return delivered, st, ast, nil
	}

	var resend [][]byte
	nack := func() [][]byte {
		resend = resend[:0]
		for s, f := range frames {
			if !rx.Has(uint32(s)) {
				resend = append(resend, f)
			}
		}
		return resend
	}
	initialMissing := len(nack())

	base := lc.ARQ.BackoffBaseTicks
	if base == 0 {
		base = 64
	}
	for round := 1; round <= lc.ARQ.MaxRetries && len(resend) > 0; round++ {
		ast.Rounds++
		ast.Nacked += len(resend)
		ast.BackoffTicks += base << uint(round-1)
		ast.Retransmissions += len(resend)
		// LinkStats.Sent ends up counting every transmission, resends
		// included — goodput is measured against radio airtime.
		n := len(delivered)
		var rst LinkStats
		delivered, rst = lc.TransmitFrames(delivered, resend, rng)
		st.Add(rst)
		if err := receive(rx, delivered[n:]); err != nil {
			return nil, st, ast, err
		}
		nack()
	}
	ast.Recovered = initialMissing - len(resend)
	ast.Unrecovered = len(resend)
	return delivered, st, ast, nil
}

// receive feeds a batch of deliveries to the receive window.
func receive(rx *trace.Reassembler, batch [][]byte) error {
	for _, f := range batch {
		if err := rx.AddFrame(f); err != nil {
			return fmt.Errorf("fleet: receive window: %w", err)
		}
	}
	return nil
}
