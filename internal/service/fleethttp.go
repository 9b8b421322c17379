package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fpmix/internal/fleet"
	"fpmix/internal/remote"
)

// The daemon side of the remote-worker wire protocol (see
// internal/remote): four idempotent JSON RPCs plus the job-spec fetch.
// Each handler decodes the request and calls the pool's in-memory
// transport (fleet.Direct) — the same one the daemon's local workers
// run over — so wire conversion lives there. Every handler maps
// fleet.ErrUnknownWorker to 410 Gone, the signal a worker recovers from
// by re-registering — the standard outcome of a daemon restart, which
// empties the in-memory registry while worker processes survive.

// maxClaimWait clamps a worker's requested long-poll window so a
// buggy client cannot pin handler goroutines indefinitely.
const maxClaimWait = 30 * time.Second

func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req remote.RegisterRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	resp, err := s.pool.Direct().Register(r.Context(), req.Name, req.Parallel)
	fleetReply(w, resp, err)
}

func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req remote.HeartbeatRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	resp, err := s.pool.Direct().Heartbeat(r.Context(), req.Worker, req.InFlight)
	fleetReply(w, resp, err)
}

func (s *Server) handleFleetClaim(w http.ResponseWriter, r *http.Request) {
	var req remote.ClaimRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxClaimWait {
		wait = maxClaimWait
	}
	resp, err := s.pool.Direct().Claim(r.Context(), req.Worker, wait, req.Max, req.Held)
	fleetReply(w, resp, err)
}

func (s *Server) handleFleetReport(w http.ResponseWriter, r *http.Request) {
	var req remote.ReportRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	accepted, err := s.pool.Direct().Report(r.Context(), req)
	fleetReply(w, remote.ReportResponse{Accepted: accepted}, err)
}

// handleJobSpec serves a job's spec so a remote worker can build the
// job's evaluation stack in its own address space.
func (s *Server) handleJobSpec(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	writeJSON(w, http.StatusOK, j.Spec)
}

// fleetReply writes a transport response, mapping registry errors onto
// the wire: an unknown or retired worker gets 410 Gone (re-register),
// anything else 500.
func fleetReply(w http.ResponseWriter, resp any, err error) {
	switch {
	case errors.Is(err, fleet.ErrUnknownWorker):
		httpError(w, http.StatusGone, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// readJSON decodes a bounded JSON request body, answering 400 itself
// on failure.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return err
	}
	if err := json.Unmarshal(body, dst); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return err
	}
	return nil
}
