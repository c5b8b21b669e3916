package fleet

import (
	"fmt"
	"sort"
	"time"

	"codetomo/internal/report"
	"codetomo/internal/trace"
)

// MoteUplink is one mote's radio accounting for the per-mote breakdown:
// what it transmitted (ARQ resends included), what the base station could
// actually use, and what faults it took.
type MoteUplink struct {
	ID uint16
	// Resets counts fault-injected reboots the mote took mid-campaign.
	Resets uint64
	// Sent counts transmissions including ARQ resends; Delivered counts
	// distinct packets reassembled; Corrupted counts frames the base
	// station rejected.
	Sent, Delivered, Corrupted int
	// Retransmissions and Recovered are the mote's ARQ effort and payoff.
	Retransmissions, Recovered int
	// EnergyUJ is the mote's consumed energy in microjoules: capacitor
	// drain under harvested power, the energy model's price of the run on
	// a mains-powered mote.
	EnergyUJ float64
	// PowerFailures and Restores count this mote's brownout deaths and
	// checkpoint resumes (0 on a mains-powered fleet).
	PowerFailures, Restores uint64
}

// Goodput is the fraction of radio transmissions that became usable
// distinct packets at the base station.
func (m MoteUplink) Goodput() float64 {
	if m.Sent == 0 {
		return 0
	}
	return float64(m.Delivered) / float64(m.Sent)
}

// Stats is the fleet run's observability record: what the radios did, what
// the base station recovered, and what estimation cost. Wall times are the
// only fields that vary between identically-seeded runs.
type Stats struct {
	// Motes is the deployment size.
	Motes int
	// Link sums the channel-side accounting over all motes.
	Link LinkStats
	// Uplink sums the base-station-side accounting over all motes.
	Uplink trace.UplinkStats
	// ARQ sums the recovery protocol's accounting over all motes.
	ARQ ARQStats
	// Resets counts fault-injected reboots across the fleet.
	Resets uint64
	// Energy totals across the fleet: EnergyUJ sums each mote's consumed
	// energy (model-priced on mains power, capacitor drain under
	// harvesting); HarvestedUJ is the banked harvest (0 on mains power).
	EnergyUJ, HarvestedUJ float64
	// Intermittence counters across the fleet (all 0 on mains power).
	PowerFailures, Checkpoints, Restores, LostVolatileEvents uint64
	// PerMote is the per-mote uplink breakdown, in mote order.
	PerMote []MoteUplink
	// EventsLogged is the total mote-side trace length before the radio.
	EventsLogged int
	// SamplesPerProc counts the duration samples that reached each
	// procedure's estimator.
	SamplesPerProc map[string]int
	// Rounds and Iterations sum streaming-estimation effort over all
	// procedures (Iterations is EM-only).
	Rounds     int
	Iterations int
	// ConvergedProcs counts procedures whose streams converged early, out
	// of EstimatedProcs.
	ConvergedProcs int
	EstimatedProcs int
	// TrimmedSamples counts observations the robust estimator discarded
	// as model-implausible outliers; LowConfidenceProcs counts estimated
	// procedures whose layout fell back to the baseline because the
	// estimate was not trusted.
	TrimmedSamples     int
	LowConfidenceProcs int
	// Per-stage wall clock.
	SimWall      time.Duration
	UplinkWall   time.Duration
	EstimateWall time.Duration
}

// Tables renders the observability record for terminal reports, the wall
// times alone in the last table so that the others repeat run to run.
func (s Stats) Tables() []*report.Table {
	out := []*report.Table{report.KV("Fleet uplink",
		[2]string{"motes", report.I(s.Motes)},
		[2]string{"mote resets (watchdog/brownout)", report.I(int(s.Resets))},
		[2]string{"events logged", report.I(s.EventsLogged)},
		[2]string{"packets sent", report.I(s.Link.Sent)},
		[2]string{"packets dropped", report.I(s.Link.Dropped)},
		[2]string{"packets corrupted (channel)", report.I(s.Link.Corrupted)},
		[2]string{"packets duplicated", report.I(s.Link.Duplicated)},
		[2]string{"packets reordered", report.I(s.Link.Reordered)},
		[2]string{"packets delivered", report.I(s.Uplink.PacketsDelivered)},
		[2]string{"packets rejected (CRC/framing)", report.I(s.Uplink.PacketsCorrupted)},
		[2]string{"packets lost (observed)", report.I(s.Uplink.PacketsLost)},
		[2]string{"events delivered", report.I(s.Uplink.EventsDelivered)},
		[2]string{"invocations recovered", report.I(s.Uplink.InvocationsRecovered)},
		[2]string{"invocations discarded", report.I(s.Uplink.InvocationsDiscarded)},
		[2]string{"invocations lost to power (partials)", report.I(s.Uplink.LostPartials)},
	)}
	if s.EnergyUJ > 0 {
		perInv := "n/a"
		if s.Uplink.InvocationsRecovered > 0 {
			perInv = fmt.Sprintf("%.3f", s.EnergyUJ/float64(s.Uplink.InvocationsRecovered))
		}
		out = append(out, report.KV("Fleet energy",
			[2]string{"energy consumed (µJ)", fmt.Sprintf("%.1f", s.EnergyUJ)},
			[2]string{"energy harvested (µJ)", fmt.Sprintf("%.1f", s.HarvestedUJ)},
			[2]string{"energy per completed invocation (µJ)", perInv},
			[2]string{"power failures", report.I(int(s.PowerFailures))},
			[2]string{"checkpoints taken", report.I(int(s.Checkpoints))},
			[2]string{"checkpoint restores", report.I(int(s.Restores))},
			[2]string{"volatile events lost", report.I(int(s.LostVolatileEvents))},
		))
	}
	if s.ARQ != (ARQStats{}) {
		out = append(out, report.KV("Fleet ARQ",
			[2]string{"retransmission rounds", report.I(s.ARQ.Rounds)},
			[2]string{"sequences NACKed", report.I(s.ARQ.Nacked)},
			[2]string{"frames retransmitted", report.I(s.ARQ.Retransmissions)},
			[2]string{"packets recovered", report.I(s.ARQ.Recovered)},
			[2]string{"packets unrecovered", report.I(s.ARQ.Unrecovered)},
			[2]string{"backoff ticks charged", report.I(int(s.ARQ.BackoffTicks))},
		))
	}
	out = append(out, report.KV("Fleet estimation",
		[2]string{"procedures estimated", report.I(s.EstimatedProcs)},
		[2]string{"procedures converged early", report.I(s.ConvergedProcs)},
		[2]string{"procedures low-confidence", report.I(s.LowConfidenceProcs)},
		[2]string{"samples trimmed (robust)", report.I(s.TrimmedSamples)},
		[2]string{"estimation rounds", report.I(s.Rounds)},
		[2]string{"EM iterations", report.I(s.Iterations)},
	))
	if len(s.PerMote) > 0 {
		pm := &report.Table{
			Title:  "Per-mote uplink",
			Header: []string{"mote", "resets", "pwrfail", "restores", "energy µJ", "sent", "delivered", "rejected", "retrans", "recovered", "goodput"},
		}
		for _, m := range s.PerMote {
			pm.AddRow(report.I(int(m.ID)), report.I(int(m.Resets)),
				report.I(int(m.PowerFailures)), report.I(int(m.Restores)),
				fmt.Sprintf("%.1f", m.EnergyUJ), report.I(m.Sent),
				report.I(m.Delivered), report.I(m.Corrupted),
				report.I(m.Retransmissions), report.I(m.Recovered),
				fmt.Sprintf("%.1f%%", 100*m.Goodput()))
		}
		out = append(out, pm)
	}
	samples := &report.Table{Title: "Fleet samples per procedure", Header: []string{"proc", "samples"}}
	names := make([]string, 0, len(s.SamplesPerProc))
	for name := range s.SamplesPerProc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		samples.AddRow(name, report.I(s.SamplesPerProc[name]))
	}
	return append(out, samples, report.KV("Fleet wall time",
		[2]string{"simulate wall", s.SimWall.String()},
		[2]string{"uplink wall", s.UplinkWall.String()},
		[2]string{"estimate wall", s.EstimateWall.String()},
	))
}
