package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"espresso/client"
	"espresso/internal/cluster"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/serve"
	"espresso/internal/store"
	"espresso/internal/strategy"
)

// tracedShare is the part of --seconds each workload's traced replay is
// sized from: every traced run replays all four workloads (each
// per-layer metric is reported on every run) and serve-small three
// times over, so each gets a twentieth.
const tracedShare = 0.05

// tracedRun is one traced layer run: every per-layer metric, from
// single-threaded replays of the four workloads' operation lists with a
// span around each call into a layer, plus the stand-alone layer probes
// in probes.go.
type tracedRun struct {
	metrics   map[string]float64
	attempted int
	errs      []error
	tracer    *wtrace.Tracer
}

// done counts one replayed operation and keeps its failure, if any.
func (t *tracedRun) done(what string, i int, err error) {
	t.attempted++
	if err != nil {
		t.errs = append(t.errs, fmt.Errorf("%s op %d: %w", what, i, err))
	}
}

// setP50 reports the median duration of a span name, in microseconds.
func (t *tracedRun) setP50(metric string, rec *recorder, spanName string) {
	t.metrics[metric] = us(p50(rec.durations(spanName)))
}

// runTraced replays all four workloads and runs the probes; the named
// workload's spans are written as a Chrome trace and its replay is the
// one the go.gc_* metrics cover.
func runTraced(name string, seed uint64, seconds float64, workdir, outDir string) (*tracedRun, error) {
	t := &tracedRun{metrics: map[string]float64{}, tracer: wtrace.New()}
	replays := map[string]func(rec *recorder, seed uint64, ops int, dir string) error{
		serveSmall:  t.replayServeSmall,
		serveMixed:  t.replayServeMixed,
		selectLarge: t.replaySelectLarge,
		simIter:     t.replaySimIter,
	}
	for _, wl := range workloadNames {
		rec := newRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ops := opCount(wl, seconds*tracedShare)
		if err := replays[wl](rec, seed, ops, filepath.Join(workdir, "traced-"+wl)); err != nil {
			return nil, fmt.Errorf("traced %s: %w", wl, err)
		}
		if wl != name {
			continue
		}
		runtime.ReadMemStats(&after)
		t.metrics["go.gc_pause_ms"] = ms(time.Duration(after.PauseTotalNs - before.PauseTotalNs))
		t.metrics["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeChrome(filepath.Join(outDir, wl+".trace.json")); err != nil {
			return nil, err
		}
	}
	if err := t.probes(seed); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := t.traceOverhead(seed, seconds*tracedShare, filepath.Join(workdir, "overhead")); err != nil {
		return nil, fmt.Errorf("trace overhead: %w", err)
	}
	return t, nil
}

// tracedSelect runs one selection under a span, with the Selector's own
// phase trace (the public Trace field) copied in beneath it.
func (t *tracedRun) tracedSelect(rec *recorder, parent int, m *model.Model, c *cluster.Cluster, cm *cost.Models) (s *strategy.Strategy, rep *core.Report, took time.Duration, phases []wtrace.Span, err error) {
	sp := rec.begin("core.select", parent)
	base := rec.now()
	tr := t.tracer.Start("select")
	setup := tr.Begin(wtrace.NoParent, "setup")
	sel := core.NewSelector(m, c, cm)
	sel.Trace = tr
	tr.End(setup)
	s, rep, err = sel.Select()
	rec.end(sp)
	phases = tr.Spans()
	tr.Release()
	rec.adopt(phases, sp, base)
	return s, rep, rec.spans[sp].dur(), phases, err
}

// selectLayers is POST /v1/select taken apart: the handler's calls into
// each layer, in its order, each under its own span. It adds the
// selection's phase durations to phaseSum and returns the share of the
// selection they tile.
func (t *tracedRun) selectLayers(rec *recorder, st *store.Store, body []byte, phaseSum map[string]time.Duration) (*client.SelectResponse, float64, error) {
	top := rec.begin("serve.request", -1)
	defer rec.end(top)

	sp := rec.begin("serve.decode", top)
	req, err := serve.DecodeSelectRequest(body)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = rec.begin("serve.build_case", top)
	c, cm, err := serve.BuildCase(req.Seed, req.Gen)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	s, rep, took, phases, err := t.tracedSelect(rec, top, c.Model, c.Cluster, cm)
	if err != nil {
		return nil, 0, err
	}
	var tiled time.Duration
	for name, d := range wtrace.PhaseDurations(phases) {
		phaseSum[name] += d
		tiled += d
	}
	sp = rec.begin("store.reserve", top)
	id, err := st.ReserveReportID()
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = rec.begin("serve.encode", top)
	out, err := serve.EncodeSelect(id, "select", c, s, serve.WireReport(rep))
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = rec.begin("store.put_report", top)
	_, err = st.PutReportWithID(id, "select", req.Seed, out)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	var resp client.SelectResponse
	return &resp, float64(tiled) / float64(took), json.Unmarshal(out, &resp)
}

// replayServeSmall replays serve-small's case list three ways — layer
// by layer, through the handler without a socket, and through the typed
// client over loopback — then times the store on the directory the
// client pass left.
func (t *tracedRun) replayServeSmall(rec *recorder, seed uint64, ops int, dir string) error {
	cases, _, err := serveCases(seed, min(ops, maxServeCases), clientCount())
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(cases))
	for i, sc := range cases {
		if bodies[i], err = json.Marshal(client.SelectRequest{Seed: sc.seed}); err != nil {
			return err
		}
	}

	// Layer by layer.
	st, err := store.Open(filepath.Join(dir, "layers"), store.Options{})
	if err != nil {
		return err
	}
	phaseSum := map[string]time.Duration{}
	minTiled := 1.0
	var evals int64
	for i := range cases {
		rec.operation(i)
		resp, tiled, err := t.selectLayers(rec, st, bodies[i], phaseSum)
		if err == nil {
			err = cases[i].check(resp, "select", cases[i].evals)
			evals += int64(resp.Report.Evals)
			minTiled = min(minTiled, tiled)
		}
		t.done("serve-small layers", i, err)
	}
	if err := st.Close(); err != nil {
		return err
	}
	selTotal := rec.total("core.select")
	for _, phase := range []string{"setup", "seed", "sweep", "offload", "alt", "finalize"} {
		t.metrics["core.phase."+phase+"_share"] = float64(phaseSum[phase]) / float64(selTotal)
	}
	var tiled time.Duration
	for _, d := range phaseSum {
		tiled += d
	}
	t.metrics["core.phase.coverage"] = float64(tiled) / float64(selTotal)
	t.metrics["core.phase.coverage_min"] = minTiled
	t.metrics["core.evals_per_select"] = float64(evals) / float64(len(cases))
	t.setP50("core.select_us", rec, "core.select")
	t.setP50("serve.decode_us", rec, "serve.decode")
	t.setP50("serve.build_case_us", rec, "serve.build_case")
	t.setP50("serve.encode_us", rec, "serve.encode")
	t.setP50("store.reserve_us", rec, "store.reserve")
	t.setP50("store.put_report_us", rec, "store.put_report")

	// Through the handler, no socket.
	if st, err = store.Open(filepath.Join(dir, "handler"), store.Options{}); err != nil {
		return err
	}
	api, err := serve.New(serve.Config{Store: st})
	if err != nil {
		return err
	}
	h := api.Handler()
	for i := range cases {
		rec.operation(i)
		req := httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(bodies[i]))
		rr := httptest.NewRecorder()
		sp := rec.begin("serve.handler", -1)
		h.ServeHTTP(rr, req)
		rec.end(sp)
		var resp client.SelectResponse
		err := json.Unmarshal(rr.Body.Bytes(), &resp)
		if rr.Code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if err == nil {
			err = cases[i].check(&resp, "select", cases[i].evals)
		}
		t.done("serve-small handler", i, err)
	}
	if err := api.Close(); err != nil {
		return err
	}
	t.setP50("serve.handler_us", rec, "serve.handler")
	var layers time.Duration
	for _, name := range []string{"serve.decode", "serve.build_case", "core.select", "store.reserve", "serve.encode", "store.put_report"} {
		layers += rec.total(name)
	}
	t.metrics["serve.layer_coverage"] = float64(layers) / float64(rec.total("serve.handler"))

	// Through the client over loopback, one caller.
	w, err := newServe(false, seed, ops, 1, filepath.Join(dir, "client"), nil, nil)
	if err != nil {
		return err
	}
	var all []time.Duration
	bucket := map[string][]time.Duration{}
	for i := 0; i < ops; i++ {
		rec.operation(i)
		sp := rec.begin("client.roundtrip", -1)
		lat, err := w.op(0, i)
		rec.end(sp)
		t.done("serve-small client", i, err)
		if err != nil {
			continue
		}
		all = append(all, lat)
		k := w.cases[i%len(w.cases)].tensors
		name := [...]string{"t1-2", "t3-4", "t5-6"}[(k-1)/2]
		bucket[name] = append(bucket[name], lat)
	}
	sort.Slice(all, func(i, k int) bool { return all[i] < all[k] })
	t.metrics["client.roundtrip_us"] = us(quantile(all, 0.5))
	t.metrics["client.latency_p99_ms"] = ms(quantile(all, 0.99))
	for _, name := range []string{"t1-2", "t3-4", "t5-6"} {
		t.metrics["serve.select_us."+name] = us(p50(bucket[name]))
	}
	t.metrics["store.wal_bytes_per_op"] = float64(w.counters().WALBytes) / float64(ops)
	return t.storeAfter(rec, w)
}

// storeAfter takes over the store directory a serve-small pass left —
// killed, not closed, so the WAL is still there — and times recovery,
// lookups and the checkpoint on it, then the append path with and
// without the disk.
func (t *tracedRun) storeAfter(rec *recorder, w *serveWL) error {
	defer os.RemoveAll(w.dir)
	if err := w.stopHTTP(); err != nil {
		return err
	}
	if err := w.api.Abort(); err != nil {
		return err
	}
	sp := rec.begin("store.reopen", -1)
	st, err := store.Open(w.dir, store.Options{})
	rec.end(sp)
	if err != nil {
		return err
	}
	t.metrics["store.reopen_ms"] = ms(rec.spans[sp].dur())

	const lookups = 20000
	sp = rec.begin("store.get_report", -1)
	for i := 0; i < lookups; i++ {
		if _, ok := st.Report(w.warm[i%len(w.warm)].id); !ok {
			return fmt.Errorf("report %s lost across reopen", w.warm[i%len(w.warm)].id)
		}
	}
	rec.end(sp)
	t.metrics["store.get_report_us"] = us(rec.spans[sp].dur()) / lookups

	sp = rec.begin("store.checkpoint", -1)
	err = st.Checkpoint()
	rec.end(sp)
	if err != nil {
		return err
	}
	t.metrics["store.checkpoint_ms"] = ms(rec.spans[sp].dur())
	if err := st.Close(); err != nil {
		return err
	}

	// The same bodies into a store that skips fsync: encode + write
	// without the disk.
	noSync, err := store.Open(filepath.Join(w.dir, "nosync"), store.Options{NoSync: true})
	if err != nil {
		return err
	}
	for _, r := range w.warm {
		id, err := noSync.ReserveReportID()
		if err != nil {
			return err
		}
		sp := rec.begin("store.put_report_nosync", -1)
		_, err = noSync.PutReportWithID(id, "select", r.resp.Case.Seed, r.body)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	if err := noSync.Close(); err != nil {
		return err
	}
	t.setP50("store.put_report_nosync_us", rec, "store.put_report_nosync")

	// What a 1 KiB append + fsync costs in this directory, so a tmpfs
	// (or a slow disk) is recognisable in the store numbers.
	f, err := os.Create(filepath.Join(w.dir, "fsync-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 1024)
	for i := 0; i < 64; i++ {
		sp := rec.begin("store.fsync_probe", -1)
		_, err := f.Write(buf)
		if err == nil {
			err = f.Sync()
		}
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	t.setP50("store.fsync_probe_us", rec, "store.fsync_probe")
	return nil
}

// replayServeMixed replays serve-mixed's request list through one
// client and reports the read and predict paths per kind.
func (t *tracedRun) replayServeMixed(rec *recorder, seed uint64, ops int, dir string) error {
	w, err := newServe(true, seed, ops, 1, dir, nil, nil)
	if err != nil {
		return err
	}
	names := map[opKind]string{opSelect: "select", opPredict: "predict", opGet: "report_get", opDiff: "diff"}
	byKind := map[opKind][]time.Duration{}
	for i := 0; i < ops; i++ {
		rec.operation(i)
		kind := w.ops[i].kind
		sp := rec.begin("client."+names[kind], -1)
		lat, err := w.op(0, i)
		rec.end(sp)
		t.done("serve-mixed", i, err)
		if err == nil {
			byKind[kind] = append(byKind[kind], lat)
		}
	}
	for _, kind := range []opKind{opPredict, opGet, opDiff} {
		t.metrics["serve."+names[kind]+"_us"] = us(p50(byKind[kind]))
	}
	return w.close()
}

// replaySelectLarge replays select-large's job list and reports the
// selector per class (the paper's Table 5 numbers) and per evaluation.
func (t *tracedRun) replaySelectLarge(rec *recorder, seed uint64, ops int, _ string) error {
	w, err := newSelectLarge(seed, ops)
	if err != nil {
		return err
	}
	byClass := map[string][]time.Duration{}
	var total time.Duration
	var evals int64
	for i, ji := range w.ops {
		rec.operation(i)
		j := &w.jobs[ji]
		s, rep, d, _, err := t.tracedSelect(rec, -1, j.m, j.c, j.cm)
		if err == nil {
			err = j.check(s, rep)
		}
		t.done("select-large", i, err)
		if err != nil {
			continue
		}
		byClass[j.class] = append(byClass[j.class], d)
		total += d
		evals += int64(rep.Evals)
	}
	for _, class := range []string{"lstm", "vgg16", "gen"} {
		t.metrics["core.select_ms."+class] = ms(p50(byClass[class]))
	}
	t.metrics["timeline.ns_per_eval"] = float64(total) / float64(evals)
	return nil
}

// replaySimIter replays sim-iter's iterations with a span per
// SyncTensor call.
func (t *tracedRun) replaySimIter(rec *recorder, seed uint64, ops int, _ string) error {
	w, err := newSimIter(seed)
	if err != nil {
		return err
	}
	ops -= ops % len(w.systems) // whole cycles, so every system has the same count
	for i := 0; i < ops; i++ {
		_, err := w.run(i, rec)
		t.done("sim-iter", i, err)
	}
	var dense, intra, inter int64
	for i := range w.systems {
		sys := &w.systems[i]
		t.metrics["ddl.iter_ms."+sys.name] = ms(p50(rec.durations("ddl.iteration." + sys.name)))
		tr := sys.x.Traffic()
		intra += tr.IntraBytes()
		inter += tr.InterBytes()
		if i == 0 {
			dense = tr.Total() * int64(len(w.systems))
		}
	}
	t.setP50("ddl.sync_tensor_us", rec, "ddl.sync_tensor")
	t.metrics["ddl.traffic.intra_bytes_per_iter"] = float64(intra) / float64(ops)
	t.metrics["ddl.traffic.inter_bytes_per_iter"] = float64(inter) / float64(ops)
	t.metrics["ddl.traffic_vs_dense"] = float64(intra+inter) / float64(dense)
	return nil
}

// traceOverhead prices the service's own observability: serve-small's
// throughput with the API's Tracer and flight recorder set against the
// same requests without them, at the untraced run's client count. The
// two servers take turns on short slices of the list, so that a slow
// spell of the machine falls on both.
func (t *tracedRun) traceOverhead(seed uint64, seconds float64, dir string) error {
	const slices = 6
	ops, clients := opCount(serveSmall, seconds), clientCount()
	plain, err := newServe(false, seed, ops, clients, filepath.Join(dir, "plain"), nil, nil)
	if err != nil {
		return err
	}
	watched, err := newServe(false, seed, ops, clients, filepath.Join(dir, "watched"), wtrace.New(), flight.New(flight.Config{}))
	if err != nil {
		return err
	}
	slice := func(w workload) time.Duration {
		m := &measured{ops: (ops + slices - 1) / slices, clients: clients}
		m.drive(w, seconds)
		for _, err := range m.errs {
			t.done("trace overhead", -1, err)
		}
		t.attempted += len(m.lat)
		return m.wall
	}
	var slower []float64
	for k := 0; k < slices; k++ {
		p, w := slice(plain), slice(watched)
		slower = append(slower, 100*(1-float64(p)/float64(w)))
	}
	t.metrics["obs.trace_overhead_pct"] = median(slower)
	if err := plain.close(); err != nil {
		return err
	}
	return watched.close()
}
