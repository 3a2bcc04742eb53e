// End-to-end conformance suite: every byte the API returns must match
// what a direct in-process call to the selection core produces. The
// tests drive a real server over HTTP (httptest listener, the typed
// client, JSON on the wire) and recompute expected responses from
// core.NewSelector / chaos.NewRunner / diff.Run with the same seeds.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"espresso/client"
	"espresso/internal/chaos"
	"espresso/internal/core"
	"espresso/internal/obs"
	"espresso/internal/oracle/diff"
	"espresso/internal/serve"
	"espresso/internal/store"
)

// planJSON is a small straggler plan (the configs/chaos-straggler.json
// shape) used by every chaos-job test.
const planJSON = `{
  "seed": 7,
  "retry": {"timeout": "200us", "backoff": 2.0, "max_rto": "5ms", "max_attempts": 16},
  "monitor": {"factor": 1.5, "consecutive": 3},
  "faults": [{"kind": "straggler", "src": -1, "scale": 0.1, "start": "0s"}]
}`

// smallGen keeps e2e cases cheap.
var smallGen = client.GenConfig{MaxTensors: 4, MaxElems: 1 << 14, MaxMachines: 3}

// testServer is one live API server over a fresh store directory.
type testServer struct {
	srv *serve.Server
	ts  *httptest.Server
	cl  *client.Client
	dir string
}

func newTestServer(t *testing.T, cfg serve.Config) *testServer {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg.Store = st
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	opts := []client.Option{}
	if cfg.Token != "" {
		opts = append(opts, client.WithToken(cfg.Token))
	}
	e := &testServer{srv: srv, ts: ts, cl: client.New(ts.URL, opts...), dir: dir}
	t.Cleanup(func() {
		ts.Close()
		srv.Close() //nolint:errcheck // double-close in tests that closed explicitly
	})
	return e
}

// postRaw POSTs a JSON body and returns status, headers, and exact body
// bytes (the typed client would re-encode; conformance needs the wire).
func postRaw(t *testing.T, url, token string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header, data
}

func getRaw(t *testing.T, url, token string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, data
}

// expectSelect recomputes the canonical select response body with a
// direct core call — the reference the API must match byte for byte.
func expectSelect(t *testing.T, id string, seed uint64, g client.GenConfig, parallelism int) []byte {
	t.Helper()
	c, cm, err := serve.BuildCase(seed, g)
	if err != nil {
		t.Fatalf("BuildCase(%d): %v", seed, err)
	}
	sel := core.NewSelector(c.Model, c.Cluster, cm)
	sel.Parallelism = parallelism
	strat, rep, err := sel.Select()
	if err != nil {
		t.Fatalf("Select(%d): %v", seed, err)
	}
	want, err := serve.EncodeSelect(id, "select", c, strat, serve.WireReport(rep))
	if err != nil {
		t.Fatalf("EncodeSelect: %v", err)
	}
	return want
}

// TestSelectConformance: POST /v1/select responses are byte-identical
// to direct selector output across seeds and parallelism settings, and
// GET /v1/reports/{id} replays the exact same bytes.
func TestSelectConformance(t *testing.T) {
	e := newTestServer(t, serve.Config{})
	n := 0
	for _, seed := range []uint64{1, 7, 42, 1000003} {
		for _, par := range []int{0, 4} {
			n++
			id := fmt.Sprintf("rep-%06d", n)
			body, err := json.Marshal(client.SelectRequest{Seed: seed, Gen: smallGen, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			status, hdr, got := postRaw(t, e.ts.URL+"/v1/select", "", body)
			if status != http.StatusOK {
				t.Fatalf("seed %d par %d: status %d: %s", seed, par, status, got)
			}
			want := expectSelect(t, id, seed, smallGen, par)
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d par %d: response diverges from direct core call\n got: %s\nwant: %s", seed, par, got, want)
			}
			if hdr.Get("X-Selection-Wall-Us") == "" {
				t.Errorf("seed %d: missing X-Selection-Wall-Us header", seed)
			}
			if hdr.Get("X-Request-ID") == "" {
				t.Errorf("seed %d: missing X-Request-ID header", seed)
			}
			// The persisted report replays the same bytes.
			status, stored := getRaw(t, e.ts.URL+"/v1/reports/"+id, "")
			if status != http.StatusOK {
				t.Fatalf("report %s: status %d", id, status)
			}
			if !bytes.Equal(stored, got) {
				t.Errorf("report %s: stored bytes differ from response\n got: %s\nwant: %s", id, stored, got)
			}
		}
	}
}

// TestPredictConformance: predicting the strategy the server itself
// selected reproduces the selected iteration time exactly.
func TestPredictConformance(t *testing.T) {
	e := newTestServer(t, serve.Config{})
	ctx := context.Background()
	const seed = 42
	sel, err := e.cl.Select(ctx, client.SelectRequest{Seed: seed, Gen: smallGen})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	pred, err := e.cl.Predict(ctx, client.PredictRequest{Seed: seed, Gen: smallGen, Strategy: sel.Strategy})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pred.Report.IterNs != sel.Report.IterNs {
		t.Errorf("predicted iter %d ns != selected iter %d ns", pred.Report.IterNs, sel.Report.IterNs)
	}
	if pred.Kind != "predict" || pred.Case != sel.Case {
		t.Errorf("predict response header mismatch: %+v vs %+v", pred, sel)
	}
	if !bytes.Equal(pred.Strategy, sel.Strategy) {
		t.Errorf("predict echoed a different strategy:\n%s\n%s", pred.Strategy, sel.Strategy)
	}
}

// TestChaosJobConformance: a chaos job's persisted report is
// byte-identical to a direct deterministic chaos run at the same seed.
func TestChaosJobConformance(t *testing.T) {
	e := newTestServer(t, serve.Config{Workers: 2})
	ctx := context.Background()
	const seed, iters = 11, 4

	js, err := e.cl.SubmitJob(ctx, client.JobRequest{
		Kind: "chaos", Seed: seed, Gen: smallGen, Iters: iters, Plan: json.RawMessage(planJSON),
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if js.State != "queued" {
		t.Fatalf("submitted job state = %q, want queued", js.State)
	}
	done, err := e.cl.WaitJob(ctx, js.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.State != "succeeded" || done.ReportID == "" {
		t.Fatalf("job finished %+v, want succeeded with a report", done)
	}

	status, got := getRaw(t, e.ts.URL+"/v1/reports/"+done.ReportID, "")
	if status != http.StatusOK {
		t.Fatalf("report fetch status %d", status)
	}

	// Direct reference run: same seed, same plan, deterministic mode.
	c, cm, err := serve.BuildCase(seed, smallGen)
	if err != nil {
		t.Fatalf("BuildCase: %v", err)
	}
	csel := core.NewSelector(c.Model, c.Cluster, cm)
	strat, _, err := csel.Select()
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	plan, err := chaos.Parse([]byte(planJSON))
	if err != nil {
		t.Fatalf("chaos.Parse: %v", err)
	}
	runner, err := chaos.NewRunner(c.Model, c.Cluster, c.Spec, strat, plan)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	runner.Deterministic = true
	for it := 0; it < iters; it++ {
		if _, err := runner.RunIteration(it); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
	}
	want, err := serve.EncodeChaos(done.ReportID, c, iters, runner.Report())
	if err != nil {
		t.Fatalf("EncodeChaos: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chaos report diverges from direct run\n got: %s\nwant: %s", got, want)
	}
}

// TestVerifyJobConformance: a verify job's persisted summary matches a
// direct per-case diff.Run merge.
func TestVerifyJobConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("verify job runs the full oracle harness")
	}
	e := newTestServer(t, serve.Config{Workers: 2})
	ctx := context.Background()
	const seed, cases = 5, 2

	js, err := e.cl.SubmitJob(ctx, client.JobRequest{Kind: "verify", Seed: seed, Cases: cases})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	done, err := e.cl.WaitJob(ctx, js.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.State != "succeeded" {
		t.Fatalf("job finished %+v, want succeeded", done)
	}
	status, got := getRaw(t, e.ts.URL+"/v1/reports/"+done.ReportID, "")
	if status != http.StatusOK {
		t.Fatalf("report fetch status %d", status)
	}

	want := client.VerifyResponse{
		ID: done.ReportID, Kind: "verify", Seed: seed, Cases: cases,
		Assertions: map[string]int{}, Failures: []client.VerifyFailure{},
	}
	for i := 0; i < cases; i++ {
		sum, err := diff.Run(diff.Config{Cases: 1, Seed: seed + uint64(i)})
		if err != nil {
			t.Fatalf("diff.Run: %v", err)
		}
		for name, n := range sum.Checks {
			want.Assertions[name] += n
		}
		for _, f := range sum.Failures {
			want.Failures = append(want.Failures, client.VerifyFailure{Seed: f.Seed, Check: f.Check, Detail: f.Detail})
		}
	}
	want.Passed = len(want.Failures) == 0
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("verify report diverges from direct harness run\n got: %s\nwant: %s", got, wantJSON)
	}
	if !want.Passed {
		t.Errorf("oracle failures on seeds %d..%d: %v", seed, seed+cases-1, want.Failures)
	}
}

// TestDiffEndpoint: the diff of two selections at different seeds
// reports the iteration-time delta and per-tensor strategy changes the
// direct computation produces.
func TestDiffEndpoint(t *testing.T) {
	e := newTestServer(t, serve.Config{})
	ctx := context.Background()
	a, err := e.cl.Select(ctx, client.SelectRequest{Seed: 1, Gen: smallGen})
	if err != nil {
		t.Fatalf("Select a: %v", err)
	}
	b, err := e.cl.Select(ctx, client.SelectRequest{Seed: 2, Gen: smallGen})
	if err != nil {
		t.Fatalf("Select b: %v", err)
	}
	d, err := e.cl.Diff(ctx, a.ID, b.ID)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d.A != a.ID || d.B != b.ID || d.SeedA != 1 || d.SeedB != 2 {
		t.Errorf("diff header mismatch: %+v", d)
	}
	if d.IterDeltaNs != b.Report.IterNs-a.Report.IterNs {
		t.Errorf("iter delta %d, want %d", d.IterDeltaNs, b.Report.IterNs-a.Report.IterNs)
	}
	// Self-diff is empty.
	self, err := e.cl.Diff(ctx, a.ID, a.ID)
	if err != nil {
		t.Fatalf("self Diff: %v", err)
	}
	if self.IterDeltaNs != 0 || len(self.StrategyChanges) != 0 {
		t.Errorf("self-diff not empty: %+v", self)
	}
}

// TestRestartRecovery kills the server mid-job (no checkpoint, no
// terminal writes — the kill -9 path) and verifies reopening the store
// surfaces the interrupted job as failed.
func TestRestartRecovery(t *testing.T) {
	e := newTestServer(t, serve.Config{Workers: 1})
	ctx := context.Background()

	// A job big enough to still be running when we pull the plug.
	js, err := e.cl.SubmitJob(ctx, client.JobRequest{
		Kind: "chaos", Seed: 3, Gen: smallGen, Iters: 1_000_000, Plan: json.RawMessage(planJSON),
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	deadline := time.After(30 * time.Second)
	for {
		st, err := e.cl.Job(ctx, js.ID)
		if err != nil {
			t.Fatalf("Job: %v", err)
		}
		if st.State == "running" {
			break
		}
		if st.State != "queued" {
			t.Fatalf("job reached %q before the crash", st.State)
		}
		select {
		case <-deadline:
			t.Fatal("job never started running")
		case <-time.After(5 * time.Millisecond):
		}
	}

	e.ts.Close()
	if err := e.srv.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	// Restart over the same directory.
	st2, err := store.Open(e.dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	found := false
	for _, id := range rec {
		if id == js.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("Recovered() = %v, want it to include %s", rec, js.ID)
	}
	j, ok := st2.Job(js.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", js.ID)
	}
	if j.State != store.JobFailed || !strings.Contains(j.Error, "interrupted") {
		t.Errorf("recovered job = %+v, want failed/interrupted", j)
	}

	// The recovered state serves through a fresh server over the store.
	srv2, err := serve.New(serve.Config{Store: st2})
	if err != nil {
		t.Fatalf("serve.New over recovered store: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	got, err := client.New(ts2.URL).Job(ctx, js.ID)
	if err != nil {
		t.Fatalf("Job over recovered store: %v", err)
	}
	if got.State != "failed" {
		t.Errorf("recovered job state over API = %q, want failed", got.State)
	}
}

// TestJobCancel: DELETE cancels a running job; a second DELETE is a 409.
func TestJobCancel(t *testing.T) {
	e := newTestServer(t, serve.Config{Workers: 1})
	ctx := context.Background()
	js, err := e.cl.SubmitJob(ctx, client.JobRequest{
		Kind: "chaos", Seed: 3, Gen: smallGen, Iters: 1_000_000, Plan: json.RawMessage(planJSON),
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if _, err := e.cl.CancelJob(ctx, js.ID); err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	done, err := e.cl.WaitJob(ctx, js.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.State != "canceled" {
		t.Fatalf("canceled job reached %q", done.State)
	}
	_, err = e.cl.CancelJob(ctx, js.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != client.CodeConflict {
		t.Fatalf("second cancel = %v, want 409 %s", err, client.CodeConflict)
	}
}

// TestJobDeadline: a 1ms deadline fails a million-iteration job.
func TestJobDeadline(t *testing.T) {
	e := newTestServer(t, serve.Config{Workers: 1})
	ctx := context.Background()
	js, err := e.cl.SubmitJob(ctx, client.JobRequest{
		Kind: "chaos", Seed: 3, Gen: smallGen, Iters: 1_000_000,
		Plan: json.RawMessage(planJSON), DeadlineMs: 1,
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	done, err := e.cl.WaitJob(ctx, js.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.State != "failed" || !strings.Contains(done.Error, "deadline") {
		t.Fatalf("deadline job = %+v, want failed with deadline error", done)
	}
}

// TestConcurrentClients hammers the API from many goroutines (selects,
// jobs, listings) — meaningful under -race.
func TestConcurrentClients(t *testing.T) {
	e := newTestServer(t, serve.Config{Workers: 4})
	ctx := context.Background()
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := uint64(100 + i)
			sel, err := e.cl.Select(ctx, client.SelectRequest{Seed: seed, Gen: smallGen})
			if err != nil {
				errs <- fmt.Errorf("client %d select: %w", i, err)
				return
			}
			if _, err := e.cl.Predict(ctx, client.PredictRequest{Seed: seed, Gen: smallGen, Strategy: sel.Strategy}); err != nil {
				errs <- fmt.Errorf("client %d predict: %w", i, err)
				return
			}
			js, err := e.cl.SubmitJob(ctx, client.JobRequest{
				Kind: "chaos", Seed: seed, Gen: smallGen, Iters: 2, Plan: json.RawMessage(planJSON),
			})
			if err != nil {
				errs <- fmt.Errorf("client %d job: %w", i, err)
				return
			}
			done, err := e.cl.WaitJob(ctx, js.ID, 5*time.Millisecond)
			if err != nil {
				errs <- fmt.Errorf("client %d wait: %w", i, err)
				return
			}
			if done.State != "succeeded" {
				errs <- fmt.Errorf("client %d job %s: %+v", i, js.ID, done)
				return
			}
			if _, err := e.cl.Reports(ctx); err != nil {
				errs <- fmt.Errorf("client %d reports: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every client produced select+predict+chaos reports.
	reps, err := e.cl.Reports(ctx)
	if err != nil {
		t.Fatalf("Reports: %v", err)
	}
	if len(reps) != clients*3 {
		t.Errorf("got %d reports, want %d", len(reps), clients*3)
	}
	// Identical seeds selected identical strategies regardless of
	// interleaving: re-select seed 100 and compare.
	again, err := e.cl.Select(ctx, client.SelectRequest{Seed: 100, Gen: smallGen})
	if err != nil {
		t.Fatalf("re-select: %v", err)
	}
	first, err := e.cl.Report(ctx, "rep-000001")
	if err == nil {
		var fr client.SelectResponse
		if jerr := json.Unmarshal(first, &fr); jerr == nil && fr.Kind == "select" && fr.Case.Seed == 100 {
			if fr.Report != again.Report {
				t.Errorf("same seed, different report: %+v vs %+v", fr.Report, again.Report)
			}
		}
	}
}

// TestAuthAndErrorContract pins one response per 4xx path: status, code,
// envelope shape, and request-ID echo.
func TestAuthAndErrorContract(t *testing.T) {
	const token = "sekrit"
	e := newTestServer(t, serve.Config{Token: token})
	ctx := context.Background()

	// Produce a terminal job and a non-select report for 409/400 paths.
	sel, err := e.cl.Select(ctx, client.SelectRequest{Seed: 1, Gen: smallGen})
	if err != nil {
		t.Fatalf("seed select: %v", err)
	}
	js, err := e.cl.SubmitJob(ctx, client.JobRequest{
		Kind: "chaos", Seed: 1, Gen: smallGen, Iters: 1, Plan: json.RawMessage(planJSON),
	})
	if err != nil {
		t.Fatalf("seed job: %v", err)
	}
	done, err := e.cl.WaitJob(ctx, js.ID, 10*time.Millisecond)
	if err != nil || done.State != "succeeded" {
		t.Fatalf("seed job: %v %+v", err, done)
	}

	cases := []struct {
		name   string
		method string
		path   string
		token  string
		body   string
		status int
		code   string
		allow  string // exact Allow header; 405 rows only
	}{
		{"no token", "POST", "/v1/select", "", `{"seed":1}`, 401, client.CodeUnauthorized, ""},
		{"wrong token", "POST", "/v1/select", "nope", `{"seed":1}`, 401, client.CodeUnauthorized, ""},
		{"listing needs token too", "GET", "/v1/reports", "", "", 401, client.CodeUnauthorized, ""},
		{"malformed json", "POST", "/v1/select", token, `{"seed":`, 400, client.CodeBadRequest, ""},
		{"unknown field", "POST", "/v1/select", token, `{"sead":1}`, 400, client.CodeBadRequest, ""},
		{"trailing garbage", "POST", "/v1/select", token, `{"seed":1} extra`, 400, client.CodeBadRequest, ""},
		{"parallelism cap", "POST", "/v1/select", token, `{"seed":1,"parallelism":1000}`, 400, client.CodeBadRequest, ""},
		{"gen cap", "POST", "/v1/select", token, `{"seed":1,"gen":{"max_tensors":1000}}`, 400, client.CodeBadRequest, ""},
		{"gen inverted bounds", "POST", "/v1/select", token, `{"seed":1,"gen":{"min_tensors":5,"max_tensors":2}}`, 400, client.CodeBadRequest, ""},
		{"predict without strategy", "POST", "/v1/predict", token, `{"seed":1}`, 400, client.CodeBadRequest, ""},
		{"job without kind", "POST", "/v1/jobs", token, `{"seed":1}`, 400, client.CodeBadRequest, ""},
		{"job unknown kind", "POST", "/v1/jobs", token, `{"kind":"mystery"}`, 400, client.CodeBadRequest, ""},
		{"chaos job without plan", "POST", "/v1/jobs", token, `{"kind":"chaos"}`, 400, client.CodeBadRequest, ""},
		{"chaos job on a self-link", "POST", "/v1/jobs", token, `{"kind":"chaos","plan":{"faults":[{"kind":"straggler","src":0,"dst":0,"scale":0.1}]}}`, 400, client.CodeBadRequest, ""},
		{"chaos plan with a misspelled field", "POST", "/v1/jobs", token, `{"kind":"chaos","plan":{"seed":1,"deadlin":"2s","faults":[{"kind":"straggler","src":-1,"scale":0.5,"strat":"1s"}]}}`, 400, client.CodeBadRequest, ""},
		{"verify job with plan", "POST", "/v1/jobs", token, `{"kind":"verify","plan":{}}`, 400, client.CodeBadRequest, ""},
		{"method not allowed", "GET", "/v1/select", token, "", 405, client.CodeMethod, "POST"},
		{"delete on reports", "DELETE", "/v1/reports", token, "", 405, client.CodeMethod, "GET"},
		{"put on jobs", "PUT", "/v1/jobs", token, "", 405, client.CodeMethod, "GET, POST"},
		{"post on job", "POST", "/v1/jobs/" + js.ID, token, "", 405, client.CodeMethod, "DELETE, GET"},
		{"unknown endpoint", "GET", "/v1/espresso", token, "", 404, client.CodeNotFound, ""},
		{"unknown job", "GET", "/v1/jobs/job-999999", token, "", 404, client.CodeNotFound, ""},
		{"unknown report", "GET", "/v1/reports/rep-999999", token, "", 404, client.CodeNotFound, ""},
		{"diff with missing report", "GET", "/v1/reports/" + sel.ID + "/diff/rep-999999", token, "", 404, client.CodeNotFound, ""},
		{"diff with chaos report", "GET", "/v1/reports/" + sel.ID + "/diff/" + done.ReportID, token, "", 400, client.CodeBadRequest, ""},
		{"cancel terminal job", "DELETE", "/v1/jobs/" + js.ID, token, "", 409, client.CodeConflict, ""},
		{"oversize body", "POST", "/v1/select", token, `{"seed":1,"gen":{` + strings.Repeat(" ", 1<<20) + `}}`, 413, client.CodeTooLarge, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, e.ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			if tc.token != "" {
				req.Header.Set("Authorization", "Bearer "+tc.token)
			}
			req.Header.Set("X-Request-ID", "trace-me-"+tc.name)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var eb client.ErrorBody
			if err := json.Unmarshal(data, &eb); err != nil {
				t.Fatalf("error body is not the JSON envelope: %q", data)
			}
			if eb.Error.Code != tc.code {
				t.Errorf("code %q, want %q (message %q)", eb.Error.Code, tc.code, eb.Error.Message)
			}
			if eb.Error.Message == "" {
				t.Error("empty error message")
			}
			if eb.Error.RequestID != "trace-me-"+tc.name {
				t.Errorf("request_id %q did not echo the X-Request-ID header", eb.Error.RequestID)
			}
			if got := resp.Header.Get("X-Request-ID"); got != "trace-me-"+tc.name {
				t.Errorf("X-Request-ID response header = %q", got)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Errorf("Allow header = %q, want %q", got, tc.allow)
			}
		})
	}

	// The typed client surfaces the same contract as *APIError.
	_, err = client.New(e.ts.URL).Select(ctx, client.SelectRequest{Seed: 1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 401 || apiErr.Code != client.CodeUnauthorized {
		t.Fatalf("typed client error = %v, want 401 %s", err, client.CodeUnauthorized)
	}
}

// TestMetricsFamilies: the api.* series the CI smoke job greps for are
// registered and counting.
func TestMetricsFamilies(t *testing.T) {
	m := obs.NewMetrics()
	e := newTestServer(t, serve.Config{Metrics: m})
	ctx := context.Background()
	if _, err := e.cl.Select(ctx, client.SelectRequest{Seed: 1, Gen: smallGen}); err != nil {
		t.Fatalf("Select: %v", err)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"api_select_requests_total 1",
		"api_status_2xx_total 1",
		"api_select_wall_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
