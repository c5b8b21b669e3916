package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/ir"
	"codetomo/internal/mote"
	"codetomo/internal/profile"
	"codetomo/internal/station"
	"codetomo/internal/trace"
)

// stationParams sizes the station_push workload.
type stationParams struct {
	app         string
	motes       int
	invocations int // handler invocations per mote
	// epochFrames is how many frames each session sends between two epoch
	// cuts.
	epochFrames int
	// corruptFirst flips a bit in session 0's first frame; the self-test
	// uses it to check that a rejected frame counts as a failure.
	corruptFirst bool
}

func defaultStationParams() stationParams {
	return stationParams{app: "sense", motes: 4096, invocations: 16, epochFrames: 512}
}

// sessions is the number of push connections, one per stop-and-wait client.
const sessions = 2

// stationInput is the generated feed: each session's frames in mote order,
// plus what the checks need.
type stationInput struct {
	src      string
	workload string // the app's input regime
	frames   [sessions][][]byte
	oracle   map[int32]*mote.BranchStat
	digest   uint64
}

// stationSetup simulates the deployment once and splits its delivered
// frames between the sessions: session k sends the frames of the k-th
// half of the motes, in mote order.
func stationSetup(seed int64, p stationParams) (*stationInput, error) {
	a, ok := apps.ByName(p.app)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", p.app)
	}
	src, err := a.Source(p.invocations)
	if err != nil {
		return nil, err
	}
	uploads, err := codetomo.FleetUploads(src, codetomo.FleetConfig{
		Config:     codetomo.Config{Workload: a.Workload, Seed: seed, TickDiv: tickDiv},
		Motes:      p.motes,
		Workers:    runtime.NumCPU(),
		DropProb:   0.05,
		ARQRetries: 3,
	})
	if err != nil {
		return nil, err
	}
	in := &stationInput{src: src, workload: a.Workload, oracle: fleet.MergeBranchStats(uploads)}
	h := fnv.New64a()
	per := (len(uploads) + sessions - 1) / sessions
	for i, up := range uploads {
		k := i / per
		for _, f := range up.Frames {
			in.frames[k] = append(in.frames[k], f)
			h.Write(f)
		}
	}
	in.digest = h.Sum64()
	if p.corruptFirst && len(in.frames[0]) > 0 {
		f := append([]byte(nil), in.frames[0][0]...)
		f[len(f)/2] ^= 0x10
		in.frames[0][0] = f
	}
	return in, nil
}

// epochs is the number of epoch cuts one round makes.
func (in *stationInput) epochs(p stationParams) int {
	n := 0
	for _, fs := range in.frames {
		n = max(n, (len(fs)+p.epochFrames-1)/p.epochFrames)
	}
	return n
}

// epochSlice returns session k's frames of epoch e.
func (in *stationInput) epochSlice(p stationParams, k, e int) [][]byte {
	fs := in.frames[k]
	lo := min(e*p.epochFrames, len(fs))
	hi := min(lo+p.epochFrames, len(fs))
	return fs[lo:hi]
}

func (in *stationInput) frameCount() int {
	n := 0
	for _, fs := range in.frames {
		n += len(fs)
	}
	return n
}

// roundResult is one round's measurements.
type roundResult struct {
	wall, pushWall time.Duration
	acksUS         []float64 // per-frame ACK latency
	cutsMS         []float64
	restartMS      float64
	snap           *station.Snapshot
	metrics        station.Metrics
	push           station.PushStats
	walBytes       int64
	recovered      uint64
	restartOK      bool
	bytes          uint64 // allocated during the round
}

// runRound ingests the whole feed once through a fresh durable station:
// both sessions send one epoch's frames each, one frame per Send, then the
// benchmark cuts the epoch; after the last cut the station is closed and
// reopened on its data directory. Spans go to tr when it is not nil.
func runRound(o options, p stationParams, in *stationInput, tr *tracer, parent int) (*roundResult, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, "station-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := station.Config{Program: in.src, DataDir: dir}
	res := &roundResult{}
	b0, _ := heapAllocs()
	start := time.Now()

	sp := tr.begin(parent, "station", "station.New")
	srv, err := station.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(l) }()
	stop := func() error {
		l.Close()
		err := srv.Close()
		if serr := <-served; err == nil {
			err = serr
		}
		return err
	}

	var clients [sessions]*station.PushSession
	for k := range clients {
		if clients[k], err = station.DialPush(l.Addr().String(), station.PushConfig{Retries: 3}); err != nil {
			for _, c := range clients[:k] {
				c.Close()
			}
			stop()
			return nil, err
		}
	}
	pushErr := func() error {
		for e := 0; e < in.epochs(p); e++ {
			var wg sync.WaitGroup
			var lat [sessions][]float64
			var errs [sessions]error
			sp := tr.begin(parent, "station", "station.push")
			t0 := time.Now()
			for k := range clients {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					lat[k], errs[k] = sendEach(clients[k], in.epochSlice(p, k, e))
				}(k)
			}
			wg.Wait()
			res.pushWall += time.Since(t0)
			tr.end(sp)
			for k := range clients {
				res.acksUS = append(res.acksUS, lat[k]...)
			}
			if err := errors.Join(errs[:]...); err != nil {
				return err
			}
			sp = tr.begin(parent, "station", "station.CutEpoch")
			t0 = time.Now()
			snap, err := srv.CutEpoch()
			res.cutsMS = append(res.cutsMS, ms(time.Since(t0)))
			tr.end(sp)
			if err != nil {
				return err
			}
			res.snap = snap
		}
		return nil
	}()
	for _, c := range clients {
		st := c.Stats()
		res.push.Frames += st.Frames
		res.push.Acked += st.Acked
		res.push.Retransmissions += st.Retransmissions
		res.push.Failed += st.Failed
		c.Close()
	}
	res.metrics = srv.Metrics()
	sp = tr.begin(parent, "station", "station.Close")
	err = stop()
	tr.end(sp)
	if pushErr != nil {
		return nil, pushErr
	}
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		res.walBytes = fi.Size()
	}

	sp = tr.begin(parent, "station", "station.New(restart)")
	t0 := time.Now()
	again, err := station.New(cfg)
	res.restartMS = ms(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	res.restartOK = reflect.DeepEqual(again.Latest(), res.snap)
	res.recovered = again.Metrics().WALRecordsRecovered
	if err := again.Close(); err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	b1, _ := heapAllocs()
	res.bytes = b1 - b0
	return res, nil
}

// sendEach pushes frames one per Send and returns each Send's latency in
// microseconds: one stop-and-wait frame to its ACK.
func sendEach(c *station.PushSession, frames [][]byte) ([]float64, error) {
	lat := make([]float64, 0, len(frames))
	for i := range frames {
		t0 := time.Now()
		if err := c.Send(frames[i : i+1]); err != nil {
			return lat, err
		}
		lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return lat, nil
}

// reference ingests the same epochs in process, without sockets or a data
// directory; the live station's final snapshot must equal its snapshot.
// With a tracer it also times the frame decoder over the whole feed.
func reference(p stationParams, in *stationInput, tr *tracer, parent int, pv passValues) (*station.Snapshot, error) {
	srv, err := station.New(station.Config{Program: in.src})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var snap *station.Snapshot
	var ingest time.Duration
	frames := 0
	for e := 0; e < in.epochs(p); e++ {
		sp := tr.begin(parent, "station", "station.IngestFrame")
		t0 := time.Now()
		for k := 0; k < sessions; k++ {
			for _, f := range in.epochSlice(p, k, e) {
				frames++
				if err := srv.IngestFrame(f); err != nil && !errors.Is(err, station.ErrRejected) {
					return nil, err
				}
			}
		}
		ingest += time.Since(t0)
		tr.end(sp)
		if snap, err = srv.CutEpoch(); err != nil {
			return nil, err
		}
	}
	if tr != nil && frames > 0 {
		pv["station.ingest_us"] = float64(ingest) / float64(time.Microsecond) / float64(frames)
		sp := tr.begin(parent, "trace", "trace.UnmarshalBinary")
		t0 := time.Now()
		for k := 0; k < sessions; k++ {
			for _, f := range in.frames[k] {
				var pkt trace.Packet
				_ = pkt.UnmarshalBinary(f) // a rejected frame costs decode time too
			}
		}
		pv["trace.decode_ns"] = float64(time.Since(t0)) / float64(frames)
		tr.end(sp)
	}
	return snap, nil
}

// checkRound counts a round's operations — frames, epoch cuts and the
// restart — and its failures: NAKed or abandoned frames, a final
// snapshot that differs from the in-process reference, and a restarted
// station whose snapshot differs from the one before the restart.
func checkRound(r *report, res *roundResult, ref *station.Snapshot) {
	r.attempted += res.push.Frames + len(res.cutsMS) + 1
	if n := res.push.Retransmissions + res.push.Failed; n > 0 {
		r.fail(n, "%d frames NAKed and %d abandoned", res.push.Retransmissions, res.push.Failed)
	}
	if !reflect.DeepEqual(res.snap, ref) {
		r.fail(1, "final snapshot differs from the in-process reference")
	}
	if !res.restartOK {
		r.fail(1, "restarted station's snapshot differs from the one before the restart")
	}
}

// runStation runs station_push: the deployment's frames pushed to a
// loopback station over two stop-and-wait sessions, round after round
// until the time is up; one operation is one frame.
func runStation(o options, p stationParams) (*report, error) {
	r := newReport(o)
	var in *stationInput
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		next, err := stationSetup(o.seed, p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if in != nil && next.digest != in.digest {
			return nil, errors.New("the deployment's frames differ between two set-ups with the same seed")
		}
		in = next
	}
	r.digest = in.digest
	ref, err := reference(p, in, nil, -1, nil)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return r, tracedStation(o, p, r, in, ref)
	}

	var walls, fps, acks, cuts, restarts []float64
	var acked int
	var allocated uint64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < o.seconds {
		res, err := runRound(o, p, in, nil, -1)
		if err != nil {
			return nil, err
		}
		checkRound(r, res, ref)
		walls = append(walls, ms(res.wall))
		acks = append(acks, res.acksUS...)
		cuts = append(cuts, res.cutsMS...)
		restarts = append(restarts, res.restartMS)
		fps = append(fps, float64(res.push.Acked)/res.pushWall.Seconds())
		acked += res.push.Acked
		allocated += res.bytes
	}

	speedup, mae, trusted, err := snapshotQuality(o.seed, in, ref)
	if err != nil {
		return nil, err
	}
	r.note("round wall p50 %.1f ms (n=%d rounds of %d frames, %d epochs each, %d sessions)",
		median(walls), len(walls), in.frameCount(), in.epochs(p), sessions)
	r.note("ingest_fps p50 %.0f 1/s (n=%d rounds, %d frames)", median(fps), len(fps), acked)
	r.note("ack_us_p50 %.1f us, ack_us_p99 %.1f us (n=%d)", median(acks), quantile(acks, 0.99), len(acks))
	r.note("cut_ms_p50 %.2f ms (n=%d), restart_ms p50 %.2f ms (n=%d)", median(cuts), len(cuts), median(restarts), len(restarts))
	r.note("final snapshot: mae_mean %.5f, %d procedures with a layout", mae, trusted)
	r.set("run_ms_geomean", median(walls))
	r.set("ops_per_s", median(fps))
	r.set("speedup_geomean", speedup)
	r.set("accuracy_mean", 1-mae)
	r.set("trusted_procs", float64(trusted))
	r.set("alloc_kb_per_op", float64(allocated)/1024/float64(max(acked, 1)))
	r.set("setup_s", median(setups))
	return r, nil
}

// snapshotQuality scores the station's published model as the paper
// scores a layout: the program built with the snapshot's layouts against
// the original build on one mote (cycles before / after), and the mean
// absolute error of each trusted procedure's estimate against the
// deployment's ground truth. trusted counts procedures with a layout.
func snapshotQuality(seed int64, in *stationInput, snap *station.Snapshot) (speedup, mae float64, trusted int, err error) {
	prof, err := compile.Build(in.src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		return 0, 0, 0, err
	}
	layouts := make(map[string][]ir.BlockID)
	estimated := 0
	for _, pm := range snap.Procs {
		if pm.Layout == nil {
			continue
		}
		trusted++
		order := make([]ir.BlockID, len(pm.Layout))
		for i, b := range pm.Layout {
			order[i] = ir.BlockID(b)
		}
		layouts[pm.Proc] = order
		if len(pm.Branches) == 0 {
			continue
		}
		oracle := profile.OracleProbs(prof.Meta.ProcByName[pm.Proc], prof.CFG.Proc(pm.Proc), in.oracle)
		sum := 0.0
		for _, b := range pm.Branches {
			sum += math.Abs(b.Prob - oracle[[2]ir.BlockID{ir.BlockID(b.From), ir.BlockID(b.To)}])
		}
		mae += sum / float64(len(pm.Branches))
		estimated++
	}
	if estimated == 0 {
		return 0, 0, 0, errors.New("the final snapshot trusts no estimated procedure")
	}
	mae /= float64(estimated)

	cfg := pipelineConfig(in.workload, seed)
	cfg.PageCrossPenalty = 0
	pv := make(passValues)
	_, before, err := execute(nil, -1, in.src, cfg, compile.Options{}, pv)
	if err != nil {
		return 0, 0, 0, err
	}
	_, after, err := execute(nil, -1, in.src, cfg, compile.Options{Layouts: layouts}, pv)
	if err != nil {
		return 0, 0, 0, err
	}
	if !reflect.DeepEqual(before.DebugOutput(), after.DebugOutput()) {
		return 0, 0, 0, codetomo.ErrOutputChanged
	}
	return float64(before.Stats().Cycles) / float64(after.Stats().Cycles), mae, trusted, nil
}

// tracedStation alternates an untraced round with a traced one until the
// time is up, and times the in-process ingest path and the frame decoder
// once per traced round.
func tracedStation(o options, p stationParams, r *report, in *stationInput, ref *station.Snapshot) error {
	loc, err := lineCounts(o.root)
	if err != nil {
		return err
	}
	tr := newTracer()
	root := tr.begin(-1, "", "workload.station_push")
	var passes []passValues
	var plain, traced []float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < o.seconds {
		res, err := runRound(o, p, in, nil, -1)
		if err != nil {
			return err
		}
		checkRound(r, res, ref)
		plain = append(plain, ms(res.wall))

		pv := maps.Clone(loc)
		op := tr.begin(root, "", "op.round")
		res, err = runRound(o, p, in, tr, op)
		tr.end(op)
		if err != nil {
			return err
		}
		checkRound(r, res, ref)
		traced = append(traced, ms(res.wall))
		pv["station.cut_ms"] = median(res.cutsMS)
		pv["station.ack_us_p50"] = median(res.acksUS)
		pv["station.ack_us_p99"] = quantile(res.acksUS, 0.99)
		pv["station.restart_ms"] = res.restartMS
		pv["station.frames_accepted"] = float64(res.metrics.FramesAccepted)
		pv["station.frames_rejected"] = float64(res.metrics.FramesRejected)
		pv["station.invocations_discarded"] = float64(res.metrics.InvocationsDiscarded)
		pv["station.wal_bytes"] = float64(res.walBytes)
		pv["station.recovered_records"] = float64(res.recovered)

		inproc := tr.begin(root, "", "op.inprocess")
		snap, err := reference(p, in, tr, inproc, pv)
		tr.end(inproc)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(snap, ref) {
			r.fail(1, "in-process reference snapshot differs between runs")
		}
		for layer, b := range tr.layerBytes(op) {
			pv[layer+".alloc_kb"] = float64(b) / 1024
		}
		_, decodeBytes := tr.stageSum(inproc, "trace.UnmarshalBinary")
		pv["trace.alloc_kb"] = float64(decodeBytes) / 1024
		passes = append(passes, pv)
	}
	tr.end(root)
	if err := tr.finish(o, r, passes, plain, traced, "round"); err != nil {
		return err
	}
	r.note("ack latency in the traced rounds: p50 %.1f us, p99 %.1f us over %d frames per round",
		r.metrics["station.ack_us_p50"].Value, r.metrics["station.ack_us_p99"].Value, in.frameCount())
	return nil
}
