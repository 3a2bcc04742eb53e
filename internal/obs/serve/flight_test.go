package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
)

// startFlightServer brings up the mux with a recorder attached.
func startFlightServer(t *testing.T, m *obs.Metrics, fr *flight.Recorder) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", m, WithFlight(fr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestFlightEndpoints drives one traced selection into the recorder and
// retrieves it through the HTTP surface: the listing, the record by ID,
// and the Chrome-trace download.
func TestFlightEndpoints(t *testing.T) {
	m := obs.NewMetrics()
	fr := flight.New(flight.Config{Metrics: m})
	tr := wtrace.New()
	s := startFlightServer(t, m, fr)

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
	code, body, hdr := get(t, s.URL+"/debug/flight")
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
	code, body, _ = get(t, s.URL+"/debug/flight/"+id)
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
	code, body, hdr = get(t, s.URL+"/debug/flight/"+id+"?format=chrome")
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
	if code, _, _ := get(t, s.URL+"/debug/flight/r00000000"); code != http.StatusNotFound {
		t.Fatalf("unknown ID: %d, want 404", code)
	}
}

// TestFlightNotMountedWithoutRecorder pins that the endpoint only exists
// when a recorder is attached.
func TestFlightNotMountedWithoutRecorder(t *testing.T) {
	s := startTestServer(t, obs.NewMetrics())
	if code, _, _ := get(t, s.URL+"/debug/flight"); code != http.StatusNotFound {
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
	s := startFlightServer(t, m, fr)

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
		code, body, _ := get(t, s.URL+"/debug/flight")
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
			if code, _, _ := get(t, s.URL+"/debug/flight/"+sum.ID); code != http.StatusOK && code != http.StatusNotFound {
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
