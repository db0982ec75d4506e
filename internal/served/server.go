package served

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"nvscavenger/internal/cli"
	"nvscavenger/internal/experiments"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/obs"
)

// Server is the HTTP/JSON frontend over a Manager — the nvserved jobs
// API.  Construct with NewServer and mount it as an http.Handler.
//
// Endpoints (all payloads are the versioned shapes of
// internal/experiments: JobSpec in, JobResult out):
//
//	POST   /jobs             submit a JobSpec; 202 + JobResult (state queued).
//	                         400 invalid spec, 413 body over 1 MiB, 429
//	                         queue full, 503 draining.
//	GET    /jobs             list every job as status JobResults, in
//	                         submission order.
//	GET    /jobs/{id}        one job's JobResult (full once terminal).
//	GET    /jobs/{id}/report the finished report, text/plain.  202 while
//	                         queued/running, 409 failed, 410 cancelled.
//	GET    /jobs/{id}/events NDJSON stream of runner.EventRecord progress
//	                         events from ?after=<seq>; stays open until the
//	                         job is terminal and the buffer is drained.
//	POST   /jobs/{id}/cancel request cancellation; 202 + status JobResult.
//	GET    /metrics          observability snapshot (text; ?format=json
//	                         for JSON).
//	GET    /healthz          liveness probe: JSON {status, recovered,
//	                         recovery} — recovery is the journal replay
//	                         summary when the manager was built with Open.
type Server struct {
	m        *Manager
	mux      *http.ServeMux
	requests func(route string) *obs.Counter
}

// NewServer returns the HTTP frontend for m.
func NewServer(m *Manager) *Server {
	s := &Server{
		m: m,
		requests: func(route string) *obs.Counter {
			return m.reg.Counter("served_requests_total", obs.L("route", route))
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the jobs API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// body returns the response body writer, wrapped with the serving-path
// fault injector when the manager config arms a writer-target spec.
func (s *Server) body(w http.ResponseWriter) io.Writer {
	if s.m.cfg.Fault.Is(faults.TargetWriter) {
		return faults.Writer(s.m.cfg.Fault, w)
	}
	return w
}

// writeJSON renders v through the shared CLI encoder, so HTTP payloads
// are byte-identical to the tools' -json files.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := cli.EncodeJSON(s.body(w), v); err != nil {
		// Headers are gone; nothing to do beyond noting the failure.
		s.m.reg.Counter("served_response_errors_total").Inc()
	}
}

// errorBody is the JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps a manager error onto its status code and JSON body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxSpecBytes bounds a submitted spec body.  A real spec is a few hundred
// bytes; the bound keeps one client from making the daemon buffer an
// arbitrarily large body.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests("submit").Inc()
	spec, err := experiments.DecodeJobSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	job, err := s.m.Submit(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, job.Result())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.requests("list").Inc()
	jobs := s.m.Jobs()
	out := make([]experiments.JobResult, 0, len(jobs))
	for _, job := range jobs {
		res := job.Result()
		// The list is a status view; full reports come from /report.
		res.Report = ""
		out = append(out, res)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.requests("get").Inc()
	job, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, job.Result())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.requests("report").Inc()
	job, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	res := job.Result()
	switch res.State {
	case experiments.StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := io.WriteString(s.body(w), res.Report); err != nil {
			s.m.reg.Counter("served_response_errors_total").Inc()
		}
	case experiments.StateFailed:
		s.writeJSON(w, http.StatusConflict, res)
	case experiments.StateCancelled:
		s.writeJSON(w, http.StatusGone, res)
	default:
		s.writeJSON(w, http.StatusAccepted, res)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.requests("events").Inc()
	job, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "after must be a non-negative integer"})
			return
		}
		after = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	body := s.body(w)
	pos := after
	for {
		events, done, err := job.Next(r.Context(), pos)
		if err != nil {
			return // client went away
		}
		for _, ev := range events {
			if err := cli.EncodeCompactJSON(body, ev); err != nil {
				s.m.reg.Counter("served_response_errors_total").Inc()
				return
			}
		}
		pos += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if done && len(events) == 0 {
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.requests("cancel").Inc()
	id := r.PathValue("id")
	if err := s.m.Cancel(id); err != nil {
		s.writeError(w, err)
		return
	}
	job, err := s.m.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, job.Result())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests("metrics").Inc()
	snap := s.m.reg.Snapshot()
	write := snap.WriteText
	contentType := "text/plain; charset=utf-8"
	if r.URL.Query().Get("format") == "json" {
		write = snap.WriteJSON
		contentType = "application/json"
	}
	w.Header().Set("Content-Type", contentType)
	if err := write(s.body(w)); err != nil {
		s.m.reg.Counter("served_response_errors_total").Inc()
	}
}

// healthBody is the /healthz payload.  Recovered is hoisted to the top
// level so probes can alert on a crash-restart without digging into the
// nested summary.
type healthBody struct {
	Status    string    `json:"status"`
	Recovered bool      `json:"recovered"`
	Recovery  *Recovery `json:"recovery,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests("healthz").Inc()
	body := healthBody{Status: "ok"}
	if rec, ok := s.m.RecoveryInfo(); ok {
		body.Recovered = rec.Recovered
		body.Recovery = &rec
	}
	s.writeJSON(w, http.StatusOK, body)
}
