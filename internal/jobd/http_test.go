package jobd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcs/internal/sim"
	"gcs/internal/store"
)

func postSpec(t *testing.T, url string, spec SweepSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPJobLifecycle drives the full API: submit (202), idempotent
// resubmit (200), status, and results with reports attached.
func TestHTTPJobLifecycle(t *testing.T) {
	d, err := New(Config{Repo: store.NewMemory(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(0)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	spec := tinySpec()
	resp := postSpec(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID == "" || view.Cells != 1 {
		t.Fatalf("submit view %+v", view)
	}
	waitDone(t, d, view.ID)

	resp = postSpec(t, srv.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobView
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Status != store.StatusDone || got.Done != 1 {
		t.Fatalf("status view %+v", got)
	}

	resp, err = http.Get(srv.URL + "/jobs/" + view.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var res resultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Cells) != 1 || !res.Cells[0].Done || res.Cells[0].Result == nil {
		t.Fatalf("results %+v", res)
	}
	if res.Cells[0].Result.Report.EventsExecuted == 0 {
		t.Fatal("returned report looks empty")
	}

	resp, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobView
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != view.ID {
		t.Fatalf("job list %+v", list)
	}
}

// TestHTTPErrors: bad specs 400 (among them specs one node or one
// sample per cell past the caps, which are never persisted, so no
// worker wires a cell that would exhaust memory), unknown jobs 404, a
// full queue 429 with Retry-After, and a draining daemon 503.
func TestHTTPErrors(t *testing.T) {
	gate := make(chan struct{})
	repo := store.NewMemory()
	d, err := New(Config{
		Repo:     repo,
		Workers:  1,
		QueueCap: 1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			<-gate
			return a.RunSliced(cfg, slice, cont)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader([]byte(`{"ns":`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	nodes := tinySpec()
	nodes.Ns = []int{MaxNodes + 1}
	samples := tinySpec()
	samples.Horizon, samples.Sample = MaxSamples+1, 1
	for _, spec := range []SweepSpec{nodes, samples} {
		resp = postSpec(t, srv.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("over-cap spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// A spec whose cells fail validation is rejected naming every one.
	bad := tinySpec()
	bad.Ns, bad.Rho = []int{8, 12}, -1
	cells, err := bad.Cells()
	if err != nil {
		t.Fatal(err)
	}
	resp = postSpec(t, srv.URL, bad)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid-cell spec status %d, want 400", resp.StatusCode)
	}
	for i := range cells {
		if want := fmt.Sprintf("sweep cell %d (", i); !strings.Contains(string(body), want) {
			t.Errorf("400 body %q does not name %q", body, want)
		}
	}
	if jobs := repo.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected specs persisted %d jobs", len(jobs))
	}

	resp, err = http.Get(srv.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postSpec(t, srv.URL, tinySpec())
	resp.Body.Close()
	over := tinySpec()
	over.Seed = 2
	resp = postSpec(t, srv.URL, over)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	resp.Body.Close()

	close(gate)
	if err := d.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	resp = postSpec(t, srv.URL, over)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || !health.Draining {
		t.Fatalf("health %+v", health)
	}
}
