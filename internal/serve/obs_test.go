package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"espresso/client"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/logx"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/serve"
)

// startObs serves the observability mux alone, as every -listen command
// but espresso-serve does.
func startObs(t *testing.T, m *obs.Metrics, fr *flight.Recorder) string {
	t.Helper()
	ts := httptest.NewServer(serve.ObsHandler(m, fr))
	t.Cleanup(ts.Close)
	return ts.URL
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? \S+$`)

// checkExposition asserts every line of a /metrics body is one a
// Prometheus scraper accepts.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		n++
	}
	if n == 0 {
		t.Fatal("exposition contained no samples")
	}
}

func TestEndpoints(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter("wire.inter.bytes").Add(7)
	url := startObs(t, m, nil)

	code, body, _ := get(t, url+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, hdr := get(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	checkExposition(t, body)
	for _, want := range []string{
		"wire_inter_bytes_total 7",
		"go_goroutines ", // runtime collector sampled per scrape
		"go_memstats_heap_alloc_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, _ = get(t, url+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	if code, _, _ = get(t, url+"/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

// TestPprofProfile fetches a short CPU profile and checks it is the
// gzipped protobuf `go tool pprof` reads.
func TestPprofProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("1s profile capture in -short mode")
	}
	url := startObs(t, obs.NewMetrics(), nil)
	code, body, _ := get(t, url+"/debug/pprof/profile?seconds=1")
	if code != http.StatusOK {
		t.Fatalf("profile = %d", code)
	}
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("profile is not gzipped protobuf (%d bytes, magic %x)", len(body), body[:min(2, len(body))])
	}
}

// TestScrapeWhileMutating hammers the registry from writer goroutines
// while scraping /metrics — the -race pass over this test is the
// concurrency contract of the whole exposition path.
func TestScrapeWhileMutating(t *testing.T) {
	m := obs.NewMetrics()
	url := startObs(t, m, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("load.worker%d.us", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Counter("load.selections").Inc()
				m.Gauge("load.depth").Set(float64(i))
				m.Histogram(name, obs.DurationBuckets...).Observe(float64(i % 1000))
				m.Timer("load.tick_seconds")()
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	scrapes := 0
	for time.Now().Before(deadline) {
		code, body, _ := get(t, url+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", scrapes, code)
		}
		checkExposition(t, body)
		scrapes++
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrape completed")
	}
}

// TestFlightEndpoints drives one traced selection into the recorder and
// retrieves it through the HTTP surface: the listing, the record by ID,
// and the Chrome-trace download.
func TestFlightEndpoints(t *testing.T) {
	m := obs.NewMetrics()
	fr := flight.New(flight.Config{Metrics: m})
	tr := wtrace.New()
	url := startObs(t, m, fr)

	c := gen.Generate(3, gen.Config{MaxTensors: 8, MaxMachines: 2})
	cm, err := cost.NewModels(c.Cluster, c.Spec)
	if err != nil {
		t.Fatal(err)
	}
	req := tr.Start("select")
	t0 := time.Now()
	sel := core.NewSelector(c.Model, c.Cluster, cm)
	sel.Trace = req
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	fr.Complete(req, c.String(), int64(rep.Evals), time.Since(t0), flight.OutcomeOK, nil)
	id := req.ID()
	req.Release()

	// Listing.
	code, body, hdr := get(t, url+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flight: %d\n%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("listing Content-Type = %q", ct)
	}
	var dump flight.Dump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("listing is not JSON: %v", err)
	}
	if dump.Total != 1 || len(dump.Records) != 1 || dump.Records[0].ID != id {
		t.Fatalf("dump = %+v", dump)
	}

	// Record by ID: the span tree with a phase breakdown.
	code, body, _ = get(t, url+"/debug/flight/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flight/%s: %d\n%s", id, code, body)
	}
	var rec flight.Record
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("record is not JSON: %v", err)
	}
	if rec.ID != id || len(rec.Spans) == 0 || len(rec.Phases) == 0 {
		t.Fatalf("record = id %s, %d spans, %d phases", rec.ID, len(rec.Spans), len(rec.Phases))
	}

	// Chrome download.
	code, body, hdr = get(t, url+"/debug/flight/"+id+"?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome download: %d", code)
	}
	if cd := hdr.Get("Content-Disposition"); !strings.Contains(cd, id) {
		t.Fatalf("Content-Disposition = %q", cd)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	// Unknown ID is a 404, not a panic.
	if code, _, _ := get(t, url+"/debug/flight/r00000000"); code != http.StatusNotFound {
		t.Fatalf("unknown ID: %d, want 404", code)
	}
}

// A chaos job whose monitor trips re-selects mid-run. The re-selection
// lands in the server's flight recorder as an anomaly, as it does for
// espresso-sim and the chaos runner, and watching it changes no byte of
// the persisted report.
func TestChaosReselectReachesFlight(t *testing.T) {
	job := client.JobRequest{Kind: "chaos", Seed: 1, Iters: 4, Plan: json.RawMessage(
		`{"seed":7,"monitor":{"factor":1.2,"consecutive":2},"faults":[{"kind":"straggler","src":-1,"scale":0.1,"start":"0s"}]}`)}
	report := func(e *testServer) []byte {
		t.Helper()
		ctx := context.Background()
		js, err := e.cl.SubmitJob(ctx, job)
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		done, err := e.cl.WaitJob(ctx, js.ID, 5*time.Millisecond)
		if err != nil || done.State != "succeeded" {
			t.Fatalf("chaos job: %+v (err %v)", done, err)
		}
		raw, err := e.cl.Report(ctx, done.ReportID)
		if err != nil {
			t.Fatalf("Report: %v", err)
		}
		return raw
	}
	traced := newTestServer(t, serve.Config{Tracer: wtrace.New(), Flight: flight.New(flight.Config{})})
	got := report(traced)
	if want := report(newTestServer(t, serve.Config{})); !bytes.Equal(got, want) {
		t.Fatalf("tracing the job changed its report\n got %s\nwant %s", got, want)
	}
	if !bytes.Contains(got, []byte(`"reselected"`)) {
		t.Fatalf("the monitor never tripped: %s", got)
	}
	code, body, _ := get(t, traced.ts.URL+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flight: %d\n%s", code, body)
	}
	var dump flight.Dump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	for _, rec := range dump.Anomalies {
		if rec.Outcome == flight.OutcomeReselect && rec.AnomalyReason == "reselect" && len(rec.Spans) > 0 {
			return
		}
	}
	t.Fatalf("no traced reselect anomaly in /debug/flight: %s", body)
}

// TestFlightNotMountedWithoutRecorder pins that the endpoint only exists
// when a recorder is attached.
func TestFlightNotMountedWithoutRecorder(t *testing.T) {
	url := startObs(t, obs.NewMetrics(), nil)
	if code, _, _ := get(t, url+"/debug/flight"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/flight without recorder: %d, want 404", code)
	}
}

// TestFlightScrapeUnderLoad hammers /debug/flight and per-record reads
// while selection traffic completes records concurrently — the data-race
// check for the recorder's rings behind the HTTP surface (run under
// -race in CI's test job).
func TestFlightScrapeUnderLoad(t *testing.T) {
	m := obs.NewMetrics()
	fr := flight.New(flight.Config{})
	tr := wtrace.New()
	url := startObs(t, m, fr)

	gc := gen.Generate(5, gen.Config{MaxTensors: 6, MaxMachines: 2})
	cm, err := cost.NewModels(gc.Cluster, gc.Spec)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := tr.Start("select")
				t0 := time.Now()
				sel := core.NewSelector(gc.Model, gc.Cluster, cm)
				sel.Trace = req
				_, rep, err := sel.Select()
				if err != nil {
					fr.Complete(req, gc.String(), 0, time.Since(t0), flight.OutcomeError, err)
				} else {
					fr.Complete(req, gc.String(), int64(rep.Evals), time.Since(t0), flight.OutcomeOK, nil)
				}
				req.Release()
			}
		}()
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		code, body, _ := get(t, url+"/debug/flight")
		if code != http.StatusOK {
			t.Errorf("listing under load: %d", code)
			break
		}
		var dump flight.Dump
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			t.Errorf("listing under load not JSON: %v", err)
			break
		}
		for _, sum := range dump.Records {
			// Reads may race completions; a record listed a moment ago is
			// allowed to have been evicted by the time we fetch it.
			if code, _, _ := get(t, url+"/debug/flight/"+sum.ID); code != http.StatusOK && code != http.StatusNotFound {
				t.Errorf("record fetch under load: %d", code)
			}
		}
	}
	close(stop)
	wg.Wait()

	if fr.Total() == 0 {
		t.Fatal("no selections completed during the scrape window")
	}
}

// TestOneHandler: espresso-serve's single mux. /v1 stays behind the
// token while the observability routes answer without one, the index
// lists every mount, and scraping never shows up in the api.* series.
func TestOneHandler(t *testing.T) {
	m := obs.NewMetrics()
	e := newTestServer(t, serve.Config{Metrics: m, Token: "secret", Tracer: wtrace.New(), Flight: flight.New(flight.Config{Metrics: m})})

	if code, body, _ := get(t, e.ts.URL+"/v1/reports"); code != http.StatusUnauthorized {
		t.Fatalf("/v1/reports without a token = %d %q, want 401", code, body)
	}
	apiSeries := func() string {
		_, body, _ := get(t, e.ts.URL+"/metrics")
		var api []string
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "api_") {
				api = append(api, line)
			}
		}
		if len(api) == 0 {
			t.Fatal("no api_* series after a /v1 request")
		}
		return strings.Join(api, "\n")
	}
	before := apiSeries()
	for _, path := range []string{"/metrics", "/healthz", "/debug/flight", "/debug/pprof/"} {
		if code, body, _ := get(t, e.ts.URL+path); code != http.StatusOK {
			t.Errorf("GET %s without a token = %d %q, want 200", path, code, body)
		}
	}
	const index = "espresso observability endpoint\n\n/metrics\n/healthz\n/debug/pprof/\n/debug/flight\n/v1/\n"
	if _, body, _ := get(t, e.ts.URL+"/"); body != index {
		t.Errorf("index = %q, want %q", body, index)
	}
	if after := apiSeries(); after != before {
		t.Errorf("scrapes moved the api.* series:\nbefore\n%s\nafter\n%s", before, after)
	}
}

// TestShutdownDrainsInFlight: a request blocked inside the handler when
// Shutdown begins on the server logx.Listen started must complete with
// its full response, and Shutdown must not return before it does.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	obsH := serve.ObsHandler(obs.NewMetrics(), nil)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		obsH.ServeHTTP(w, r)
	})
	srv := logx.Listen(slog.New(slog.NewTextHandler(io.Discard, nil)), "127.0.0.1:0", slow)
	url := "http://" + srv.Addr

	var (
		wg      sync.WaitGroup
		body    string
		reqErr  error
		downErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			reqErr = err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			reqErr = err
			return
		}
		body = string(b)
	}()

	<-entered
	shutdownDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		downErr = srv.Shutdown(ctx)
		close(shutdownDone)
	}()

	// Shutdown must wait for the in-flight request: give it a moment to
	// (incorrectly) return early, then release the handler.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-shutdownDone
	wg.Wait()

	if downErr != nil {
		t.Fatalf("Shutdown: %v", downErr)
	}
	if reqErr != nil {
		t.Fatalf("in-flight request failed: %v", reqErr)
	}
	if body != "ok\n" {
		t.Fatalf("in-flight response = %q, want %q", body, "ok\n")
	}

	// The listener is gone: new connections are refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}
