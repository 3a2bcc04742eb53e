package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"espresso/client"
	"espresso/internal/core"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/store"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// Config assembles a Server.
type Config struct {
	// Store persists jobs and reports; required.
	Store *store.Store
	// Metrics receives the per-endpoint api.* series; nil allocates a
	// private registry.
	Metrics *obs.Metrics
	// Tracer/Flight, when set, wall-clock-trace every synchronous
	// selection and record it in the flight recorder, with the HTTP
	// request ID in the record's fingerprint so /debug/flight entries
	// grep against access logs. A chaos job's re-selections land there
	// too, as anomalies.
	Tracer *wtrace.Tracer
	Flight *flight.Recorder
	// Log receives request-ID-correlated access and job logs; nil is
	// silent.
	Log *slog.Logger
	// Token, when non-empty, gates every /v1 route behind
	// "Authorization: Bearer <Token>".
	Token string
	// Workers bounds concurrently executing jobs (default 2).
	Workers int
	// JobDeadline is the default and maximum per-job execution deadline
	// (default 10m). A job's deadline_ms may shorten it, never extend.
	JobDeadline time.Duration
}

// Server is the API: build with New, serve Handler on a listener (the
// /v1 routes and the observability routes share one mux), and Close to
// drain.
type Server struct {
	cfg   Config
	st    *store.Store
	m     *obs.Metrics
	log   *slog.Logger
	exec  *executor
	reqID atomic.Uint64
}

// New validates the config and builds the server and its job executor.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.JobDeadline <= 0 {
		cfg.JobDeadline = 10 * time.Minute
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(discardHandler{})
	}
	s := &Server{cfg: cfg, st: cfg.Store, m: cfg.Metrics, log: cfg.Log}
	s.exec = newExecutor(cfg)
	return s, nil
}

// Close drains the server's job executor (running jobs are canceled and
// marked canceled) and closes the store with a final checkpoint. The
// HTTP side is owned by the caller (http.Server.Shutdown drains it).
func (s *Server) Close() error {
	s.exec.close()
	return s.st.Close()
}

// Abort simulates a crash for the restart-persistence tests: job
// goroutines are stopped WITHOUT terminal-state writes and the store is
// abandoned without a checkpoint, leaving running jobs on disk in the
// running state — exactly what kill -9 would leave behind.
func (s *Server) Abort() error {
	s.exec.abort()
	return s.st.Abandon()
}

// ctxKey carries the request ID through the handler chain.
type ctxKey int

const ctxReqID ctxKey = 0

// RequestID returns the request ID the middleware assigned.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxReqID).(string)
	return id
}

// Handler returns the server's one mux: the /v1 API (auth, request IDs,
// per-endpoint metrics, and structured errors around the route
// handlers) beside the ObsHandler routes over the same registry and
// flight recorder.
func (s *Server) Handler() http.Handler {
	mux := obsMux(s.m, s.cfg.Flight, "/v1/")
	mux.HandleFunc("/v1/select", s.route("select", map[string]http.HandlerFunc{
		http.MethodPost: s.handleSelect,
	}))
	mux.HandleFunc("/v1/predict", s.route("predict", map[string]http.HandlerFunc{
		http.MethodPost: s.handlePredict,
	}))
	mux.HandleFunc("/v1/jobs", s.route("jobs", map[string]http.HandlerFunc{
		http.MethodPost: s.handleJobSubmit,
		http.MethodGet:  s.handleJobList,
	}))
	mux.HandleFunc("/v1/jobs/{id}", s.route("job", map[string]http.HandlerFunc{
		http.MethodGet:    s.handleJobGet,
		http.MethodDelete: s.handleJobCancel,
	}))
	mux.HandleFunc("/v1/reports", s.route("reports", map[string]http.HandlerFunc{
		http.MethodGet: s.handleReportList,
	}))
	mux.HandleFunc("/v1/reports/{id}", s.route("report", map[string]http.HandlerFunc{
		http.MethodGet: s.handleReportGet,
	}))
	mux.HandleFunc("/v1/reports/{a}/diff/{b}", s.route("diff", map[string]http.HandlerFunc{
		http.MethodGet: s.handleDiff,
	}))
	mux.HandleFunc("/v1/", s.route("unknown", nil))
	return mux
}

// route wraps one endpoint: request ID, auth, method dispatch, metrics,
// and the access log line. methods == nil is the 404 fallback.
func (s *Server) route(tag string, methods map[string]http.HandlerFunc) http.HandlerFunc {
	requests := s.m.Counter("api." + tag + ".requests")
	errs := s.m.Counter("api." + tag + ".errors")
	timer := s.m.Histogram("api."+tag+".wall_seconds", obs.SecondsBuckets...)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()

		// Request ID: honor the caller's, else mint one.
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = fmt.Sprintf("req-%08d", s.reqID.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), ctxReqID, id))

		sw := &statusWriter{ResponseWriter: w}
		switch {
		case !s.authorized(r):
			s.writeError(sw, r, http.StatusUnauthorized, client.CodeUnauthorized, "missing or invalid bearer token")
		case methods == nil:
			s.writeError(sw, r, http.StatusNotFound, client.CodeNotFound, "no such endpoint %s", r.URL.Path)
		default:
			h, ok := methods[r.Method]
			if !ok {
				allowed := make([]string, 0, len(methods))
				for m := range methods {
					allowed = append(allowed, m)
				}
				sort.Strings(allowed)
				sw.Header().Set("Allow", strings.Join(allowed, ", "))
				s.writeError(sw, r, http.StatusMethodNotAllowed, client.CodeMethod, "method %s not allowed on %s", r.Method, r.URL.Path)
			} else {
				h(sw, r)
			}
		}

		elapsed := time.Since(start)
		timer.Observe(elapsed.Seconds())
		code := sw.code()
		s.m.Counter(fmt.Sprintf("api.status.%dxx", code/100)).Inc()
		if code >= 400 {
			errs.Inc()
		}
		s.log.Info("api request",
			"req", id, "route", tag, "method", r.Method, "path", r.URL.Path,
			"status", code, "wall_us", float64(elapsed)/float64(time.Microsecond))
	}
}

// authorized checks the static bearer token (constant-time compare); an
// empty configured token leaves the API open.
func (s *Server) authorized(r *http.Request) bool {
	if s.cfg.Token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.cfg.Token)) == 1
}

// statusWriter captures the status code for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) code() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.status
}

// writeError emits the structured error envelope.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	body := client.ErrorBody{Error: client.APIError{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		RequestID: RequestID(r.Context()),
	}}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // client gone is the only failure
}

// writeJSON emits a 2xx JSON body.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone is the only failure
}

// readBody reads the request body under the size cap, distinguishing
// oversize (413) from transport errors.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := readAllLimited(w, r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, client.CodeTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		} else {
			s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return data, true
}

func readAllLimited(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	limited := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer limited.Close()
	return io.ReadAll(limited)
}

// handleSelect runs a synchronous selection and persists the report.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeSelectRequest(data)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "select request: %v", err)
		return
	}
	c, cm, err := BuildCase(req.Seed, req.Gen)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "%v", err)
		return
	}

	reqID := RequestID(r.Context())
	tr := s.cfg.Tracer.Start("api.select")
	t0 := time.Now()
	spSetup := tr.Begin(wtrace.NoParent, "setup")
	sel := core.NewSelector(c.Model, c.Cluster, cm)
	sel.Parallelism = req.Parallelism
	sel.Trace = tr
	tr.End(spSetup)
	strat, rep, err := sel.Select()
	wall := time.Since(t0)
	if err != nil {
		s.cfg.Flight.Complete(tr, flightFingerprint(c, reqID), 0, wall, flight.OutcomeError, err)
		tr.Release()
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "selection failed: %v", err)
		return
	}
	s.cfg.Flight.Complete(tr, flightFingerprint(c, reqID), int64(rep.Evals), wall, flight.OutcomeOK, nil)
	tr.Release()

	_, body, err := putReport(s.st, "select", req.Seed, func(id string) ([]byte, error) {
		return EncodeSelect(id, "select", c, strat, WireReport(rep))
	})
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "%v", err)
		return
	}
	w.Header().Set("X-Selection-Wall-Us", fmt.Sprintf("%d", wall.Microseconds()))
	writeJSON(w, http.StatusOK, body)
}

// putReport is the service's one report-write path: reserve an ID,
// encode the body that carries it, persist the body under it — two WAL
// records per report and one fsync, shared with every other write in
// flight. The ID reaches the disk with the body, before the response
// can publish it. Store errors come back prefixed with the step that
// failed, encode errors as they are.
func putReport(st *store.Store, kind string, seed uint64, encode func(id string) ([]byte, error)) (string, []byte, error) {
	id, err := st.ReserveReportID()
	if err != nil {
		return "", nil, fmt.Errorf("reserving report ID: %w", err)
	}
	body, err := encode(id)
	if err != nil {
		return "", nil, err
	}
	if _, err := st.PutReportWithID(id, kind, seed, body); err != nil {
		return "", nil, fmt.Errorf("persisting report: %w", err)
	}
	return id, body, nil
}

// flightFingerprint ties a flight record to both the generated case and
// the HTTP request that triggered it.
func flightFingerprint(c interface{ String() string }, reqID string) string {
	return c.String() + " http_req=" + reqID
}

// handlePredict evaluates an explicit strategy on the seeded case.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodePredictRequest(data)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "predict request: %v", err)
		return
	}
	c, cm, err := BuildCase(req.Seed, req.Gen)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "%v", err)
		return
	}
	strat, err := strategy.Unmarshal(req.Strategy)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "strategy: %v", err)
		return
	}
	if len(strat.PerTensor) != len(c.Model.Tensors) {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest,
			"strategy has %d tensors, case %d has %d", len(strat.PerTensor), req.Seed, len(c.Model.Tensors))
		return
	}
	eng := timeline.New(c.Model, c.Cluster, cm)
	eng.RecordOps = false
	t0 := time.Now()
	iter, err := eng.IterTime(strat)
	wall := time.Since(t0)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "prediction failed: %v", err)
		return
	}
	_, body, err := putReport(s.st, "predict", req.Seed, func(id string) ([]byte, error) {
		return EncodeSelect(id, "predict", c, strat, client.SelectReport{IterNs: iter.Nanoseconds(), Evals: 1})
	})
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "%v", err)
		return
	}
	w.Header().Set("X-Selection-Wall-Us", fmt.Sprintf("%d", wall.Microseconds()))
	writeJSON(w, http.StatusOK, body)
}

// handleJobSubmit enqueues an asynchronous job.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeJobRequest(data)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest, "job request: %v", err)
		return
	}
	// Persist the spec exactly as validated (re-encoded canonically).
	spec, err := json.Marshal(req)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "encoding spec: %v", err)
		return
	}
	job, err := s.st.CreateJob(req.Kind, spec)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "creating job: %v", err)
		return
	}
	s.exec.submit(job, req)
	s.log.Info("job submitted", "req", RequestID(r.Context()), "job", job.ID, "kind", req.Kind, "seed", req.Seed)
	body, _ := json.Marshal(jobStatus(job))
	writeJSON(w, http.StatusAccepted, body)
}

// jobStatus projects a store row onto the wire type.
func jobStatus(j store.Job) client.JobStatus {
	return client.JobStatus{
		ID:       j.ID,
		Kind:     j.Kind,
		State:    string(j.State),
		Error:    j.Error,
		ReportID: j.ReportID,
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.st.Job(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, client.CodeNotFound, "no job %q", id)
		return
	}
	body, _ := json.Marshal(jobStatus(j))
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.st.Jobs()
	out := client.JobList{Jobs: make([]client.JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, jobStatus(j))
	}
	body, _ := json.Marshal(out)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.st.Job(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, client.CodeNotFound, "no job %q", id)
		return
	}
	if j.State.Terminal() {
		s.writeError(w, r, http.StatusConflict, client.CodeConflict, "job %s already %s", id, j.State)
		return
	}
	s.exec.cancel(id)
	s.log.Info("job cancel requested", "req", RequestID(r.Context()), "job", id)
	j, _ = s.st.Job(id)
	body, _ := json.Marshal(jobStatus(j))
	writeJSON(w, http.StatusAccepted, body)
}

func (s *Server) handleReportGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, ok := s.st.Report(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, client.CodeNotFound, "no report %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rep.Body)
}

func (s *Server) handleReportList(w http.ResponseWriter, r *http.Request) {
	reps := s.st.Reports()
	out := client.ReportList{Reports: make([]client.ReportMeta, 0, len(reps))}
	for _, rep := range reps {
		out.Reports = append(out.Reports, client.ReportMeta{ID: rep.ID, Kind: rep.Kind, Seed: rep.Seed})
	}
	body, _ := json.Marshal(out)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	aID, bID := r.PathValue("a"), r.PathValue("b")
	a, okA := s.st.Report(aID)
	if !okA {
		s.writeError(w, r, http.StatusNotFound, client.CodeNotFound, "no report %q", aID)
		return
	}
	b, okB := s.st.Report(bID)
	if !okB {
		s.writeError(w, r, http.StatusNotFound, client.CodeNotFound, "no report %q", bID)
		return
	}
	for _, rep := range []store.Report{a, b} {
		if rep.Kind != "select" && rep.Kind != "predict" {
			s.writeError(w, r, http.StatusBadRequest, client.CodeBadRequest,
				"report %s has kind %q; diff supports select and predict reports", rep.ID, rep.Kind)
			return
		}
	}
	var ra, rb client.SelectResponse
	if err := json.Unmarshal(a.Body, &ra); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "decoding report %s: %v", aID, err)
		return
	}
	if err := json.Unmarshal(b.Body, &rb); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "decoding report %s: %v", bID, err)
		return
	}
	d, err := Diff(aID, bID, ra, rb)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, client.CodeInternal, "%v", err)
		return
	}
	body, _ := json.Marshal(d)
	writeJSON(w, http.StatusOK, body)
}

// discardHandler is a no-op slog handler for Log == nil.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
