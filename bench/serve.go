package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"espresso/client"
	"espresso/internal/core"
	"espresso/internal/gen"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/par"
	"espresso/internal/serve"
	"espresso/internal/store"
	"espresso/internal/strategy"
)

// serveCase is one generated case with the in-process reference every
// response for it must match.
type serveCase struct {
	seed     uint64
	tensors  int
	strategy []byte // canonical strategy JSON
	iterNs   int64
	evals    int
	ratio    float64 // selected ÷ FP32 predicted iteration time
}

type opKind uint8

const (
	opSelect opKind = iota
	opPredict
	opGet
	opDiff
)

// serveOp is one request of the list. c indexes cases (select,
// predict); a and b index the warm-up reports (get, diff).
type serveOp struct {
	kind opKind
	c    int
	a, b int
	want []byte // expected diff body
}

// warmReport is a report the warm-up created: reads fetch it and must
// get back exactly the bytes that created it.
type warmReport struct {
	id   string
	body []byte
	resp client.SelectResponse
}

// serveWL is serve-small (mixed == false: every request a select) and
// serve-mixed (reads and predicts beside the selects): a real store
// with fsync on, the API handler on a loopback listener, and one typed
// client per closed-loop caller.
type serveWL struct {
	mixed   bool
	cases   []serveCase
	ops     []serveOp // mixed only; serve-small's op i selects case i % len(cases)
	warm    []warmReport
	dir     string
	api     *serve.Server
	srv     *http.Server
	served  chan error
	clients []*client.Client
	conns   []*http.Transport
	tally   []counters // one per client
	walBase int64
}

// serveShares is the census of the serve case list: tensor counts 1–6
// equally, and within each the generator's own 40/60 split between
// clusters with one communication level and with two.
func serveShares() ([]float64, func(*gen.Case) int) {
	share := make([]float64, 12)
	for k := range share {
		share[k] = 0.4 / 6
		if k%2 == 1 {
			share[k] = 0.6 / 6
		}
	}
	return share, func(c *gen.Case) int {
		k := 2 * (len(c.Model.Tensors) - 1)
		if hierarchical(c.Cluster) {
			k++
		}
		return k
	}
}

// reference selects one case in process, the way the handler does, and
// records what the service must answer for it.
func reference(seed uint64) (serveCase, error) {
	c, cm, err := serve.BuildCase(seed, client.GenConfig{})
	if err != nil {
		return serveCase{}, err
	}
	s, rep, err := core.NewSelector(c.Model, c.Cluster, cm).Select()
	if err != nil {
		return serveCase{}, fmt.Errorf("case %s: %w", c, err)
	}
	sj, err := strategy.Marshal(s)
	if err != nil {
		return serveCase{}, err
	}
	base, err := fp32Iter(c.Model, c.Cluster, cm)
	if err != nil {
		return serveCase{}, err
	}
	return serveCase{
		seed: seed, tensors: len(c.Model.Tensors), strategy: sj,
		iterNs: rep.Iter.Nanoseconds(), evals: rep.Evals,
		ratio: float64(rep.Iter) / float64(base),
	}, nil
}

// serveCases draws n cases from the seed and computes their references
// on `workers` goroutines.
func serveCases(seed uint64, n, workers int) ([]serveCase, *gen.Rand, error) {
	r := gen.New(seed)
	share, cell := serveShares()
	drawn := drawCases(r, n, gen.Config{}, share, cell)
	cases := make([]serveCase, n)
	err := par.Each(n, workers, func(_, i int) error {
		var err error
		cases[i], err = reference(drawn[i].Seed)
		return err
	})
	return cases, r, err
}

// newServe builds a serve workload. tracer and fr are nil except where
// the traced run prices the service's own tracing.
func newServe(mixed bool, seed uint64, ops, clients int, dir string, tracer *wtrace.Tracer, fr *flight.Recorder) (*serveWL, error) {
	n := ops
	if n > maxServeCases {
		n = maxServeCases
	}
	cases, r, err := serveCases(seed, n, clients)
	if err != nil {
		return nil, err
	}
	w := &serveWL{mixed: mixed, cases: cases, dir: dir, tally: make([]counters, clients)}
	// A store with fsync on, and the API on a loopback port.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	if w.api, err = serve.New(serve.Config{Store: st, Tracer: tracer, Flight: fr}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = &http.Server{Handler: w.api.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for c := 0; c < clients; c++ {
		// Each caller gets its own connection.
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		w.conns = append(w.conns, tr)
		w.clients = append(w.clients, client.New(base, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: time.Minute})))
	}

	// Warm-up: the first cases once through the whole path. It fills
	// connection, buffer and tracer pools, and leaves the reports the
	// mixed workload reads back.
	nWarm := warmReports
	if nWarm > n {
		nWarm = n
	}
	w.warm = make([]warmReport, nWarm)
	err = par.Each(nWarm, clients, func(c, i int) error {
		resp, _, err := w.selectCase(c, i)
		if err != nil {
			return err
		}
		body, err := json.Marshal(resp)
		w.warm[i] = warmReport{id: resp.ID, body: body, resp: *resp}
		return err
	})
	if err != nil {
		w.close() //nolint:errcheck // the warm-up error is the one to report
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if mixed {
		if w.ops, err = mixedOps(r, ops, n, w.warm); err != nil {
			w.close() //nolint:errcheck // as above
			return nil, err
		}
	}
	w.tally = make([]counters, clients) // the warm-up is not part of the run
	w.walBase = fileSize(filepath.Join(dir, "wal.log"))
	return w, nil
}

// mixedOps draws the serve-mixed request list: per ten requests three
// selects, three predicts, three report reads and one diff, shuffled.
// (With more reads than writes the overall median falls on the thin
// tail of reads that waited for an append's fsync, and swings with the
// disk; at four in ten it falls among the predicts.)
// Selects and predicts walk the case list; reads pick among the
// warm-up's reports, so every target exists whatever order concurrent
// clients finish in.
func mixedOps(r *gen.Rand, ops, cases int, warm []warmReport) ([]serveOp, error) {
	block := []opKind{opSelect, opSelect, opSelect, opPredict, opPredict, opPredict, opGet, opGet, opGet, opDiff}
	out := make([]serveOp, 0, ops+len(block))
	nextSel, nextPred := 0, 0
	for len(out) < ops {
		for i := len(block) - 1; i > 0; i-- {
			k := r.Intn(i + 1)
			block[i], block[k] = block[k], block[i]
		}
		for _, kind := range block {
			op := serveOp{kind: kind}
			switch kind {
			case opSelect:
				op.c = nextSel % cases
				nextSel++
			case opPredict:
				op.c = nextPred % cases
				nextPred++
			case opGet:
				op.a = r.Intn(len(warm))
			case opDiff:
				op.a, op.b = r.Intn(len(warm)), r.Intn(len(warm))
				a, b := warm[op.a], warm[op.b]
				d, err := serve.Diff(a.id, b.id, a.resp, b.resp)
				if err != nil {
					return nil, err
				}
				if op.want, err = json.Marshal(d); err != nil {
					return nil, err
				}
			}
			out = append(out, op)
		}
	}
	return out[:ops], nil
}

// selectCase posts one select and checks the answer against the
// case's reference.
func (w *serveWL) selectCase(c, i int) (*client.SelectResponse, time.Duration, error) {
	sc := &w.cases[i]
	t0 := time.Now()
	resp, err := w.clients[c].Select(context.Background(), client.SelectRequest{Seed: sc.seed})
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if err := sc.check(resp, "select", sc.evals); err != nil {
		return nil, lat, err
	}
	w.tally[c].add(resp.Report.Evals, sc.ratio)
	return resp, lat, nil
}

// check compares a select or predict response with the reference.
func (sc *serveCase) check(resp *client.SelectResponse, kind string, evals int) error {
	switch {
	case resp.Kind != kind:
		return fmt.Errorf("seed %d: kind %q, want %q", sc.seed, resp.Kind, kind)
	case resp.Case.Seed != sc.seed:
		return fmt.Errorf("seed %d: response is for seed %d", sc.seed, resp.Case.Seed)
	case resp.Report.IterNs != sc.iterNs:
		return fmt.Errorf("seed %d: iter_ns %d, reference %d", sc.seed, resp.Report.IterNs, sc.iterNs)
	case resp.Report.Evals != evals:
		return fmt.Errorf("seed %d: evals %d, reference %d", sc.seed, resp.Report.Evals, evals)
	case !bytes.Equal(resp.Strategy, sc.strategy):
		return fmt.Errorf("seed %d: strategy differs from the reference", sc.seed)
	}
	return nil
}

func (w *serveWL) op(c, i int) (time.Duration, error) {
	if !w.mixed {
		_, lat, err := w.selectCase(c, i%len(w.cases))
		return lat, err
	}
	op := &w.ops[i]
	ctx := context.Background()
	switch op.kind {
	case opSelect:
		_, lat, err := w.selectCase(c, op.c)
		return lat, err
	case opPredict:
		sc := &w.cases[op.c]
		t0 := time.Now()
		resp, err := w.clients[c].Predict(ctx, client.PredictRequest{Seed: sc.seed, Strategy: sc.strategy})
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		if err := sc.check(resp, "predict", 1); err != nil {
			return lat, err
		}
		w.tally[c].add(1, sc.ratio)
		return lat, nil
	case opGet:
		want := &w.warm[op.a]
		t0 := time.Now()
		body, err := w.clients[c].Report(ctx, want.id)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		if !bytes.Equal(body, want.body) {
			return lat, fmt.Errorf("report %s: body differs from the response that created it", want.id)
		}
		return lat, nil
	default:
		a, b := w.warm[op.a].id, w.warm[op.b].id
		t0 := time.Now()
		d, err := w.clients[c].Diff(ctx, a, b)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		got, err := json.Marshal(d)
		if err != nil {
			return lat, err
		}
		if !bytes.Equal(got, op.want) {
			return lat, fmt.Errorf("diff %s..%s: differs from the in-process diff", a, b)
		}
		return lat, nil
	}
}

func (w *serveWL) counters() counters {
	k := sumCounters(w.tally)
	k.WALBytes = fileSize(filepath.Join(w.dir, "wal.log")) - w.walBase
	return k
}

// stopHTTP drains the listener and returns once the serving goroutine
// has exited. The store stays open.
func (w *serveWL) stopHTTP() error {
	// Hang up first: Shutdown polls, with a growing interval, until the
	// server has seen every connection go.
	for _, tr := range w.conns {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// close stops serving, closes the store and removes its directory.
func (w *serveWL) close() error {
	err := w.stopHTTP()
	if cerr := w.api.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
