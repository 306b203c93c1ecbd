package jobd

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"gcs/internal/store"
)

// maxSpecBytes bounds a submitted spec body; grids are lists of short
// names and numbers, so a megabyte is generous.
const maxSpecBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /jobs               submit a SweepSpec; 202 on admission,
//	                         200 if the job already exists, 400 on a
//	                         bad spec, 429 (+Retry-After) when the
//	                         queue is full, 503 while draining
//	GET  /jobs               list jobs
//	GET  /jobs/{id}          one job's status
//	GET  /jobs/{id}/results  the job's cells in grid order; partial
//	                         jobs return partial results
//	GET  /healthz            liveness + drain state
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", d.handleJob)
	mux.HandleFunc("GET /jobs/{id}/results", d.handleResults)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	return mux
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, "jobd: spec body unreadable or over "+strconv.Itoa(maxSpecBytes)+" bytes",
			http.StatusBadRequest)
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	view, created, err := d.Submit(spec)
	if err != nil {
		var over *OverloadError
		switch {
		case errors.Is(err, ErrDraining):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.As(err, &over):
			secs := int(over.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, view)
}

func (d *Daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Jobs())
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := d.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "jobd: no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// resultsResponse is the GET /jobs/{id}/results payload.
type resultsResponse struct {
	ID     string          `json:"id"`
	Status store.JobStatus `json:"status"`
	Cells  []CellView      `json:"cells"`
}

func (d *Daemon) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := d.Job(id)
	if !ok {
		http.Error(w, "jobd: no such job", http.StatusNotFound)
		return
	}
	cells, _ := d.Results(id)
	writeJSON(w, http.StatusOK, resultsResponse{ID: view.ID, Status: view.Status, Cells: cells})
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{"ok", d.Draining()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encoding error comes too late for a status change; the client
	// sees a short body.
	_ = json.NewEncoder(w).Encode(v)
}
