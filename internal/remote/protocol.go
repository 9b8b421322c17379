// Package remote is the worker side of the fpmixd fleet: the wire
// protocol a worker speaks to the daemon, the Transport seam, an HTTP
// transport client hardened against real networks (per-RPC deadlines,
// jittered exponential retry, deterministic chaos injection), and the
// worker runtime (Serve). Every fleet worker runs that runtime:
// cmd/fpmixworker over HTTP, the daemon's own local workers over the
// pool's in-memory transport (fleet.Direct).
//
// The protocol is four idempotent JSON-over-HTTP RPCs against the
// daemon's /api/v1/fleet endpoints:
//
//	register   join the fleet, declaring evaluation parallelism;
//	           returns the worker ID and the heartbeat interval /
//	           expiry budget to respect
//	claim      long-poll for a batch of evaluation units; always
//	           re-delivers every lease the worker still holds (same
//	           epochs) before topping up, so claim responses lost on
//	           the wire can never strand or double-assign a unit
//	heartbeat  refresh the lease clock, carrying the worker's current
//	           in-flight evaluation count; returns the worker state so
//	           a quarantined worker learns to drain
//	report     deliver a batch of verdicts or worker-side errors; each
//	           unit is accepted at most once per (owner, epoch) token,
//	           judged independently of its batchmates
//
// plus GET /api/v1/fleet/jobs/{id}/spec, from which the worker builds
// the job's evaluation stack (search.UnitRunner) in its own address
// space. Every failure-domain decision lives on the daemon: lease
// expiry uses only the daemon's clock, and duplicate or stale
// deliveries die against the per-unit owner+epoch idempotency tokens —
// batching changes how many units ride one RPC, never the tokens.
package remote

import (
	"encoding/hex"
	"fmt"

	"fpmix/internal/config"
	"fpmix/internal/search"
)

// RegisterRequest asks the daemon for a fleet identity. Parallel
// declares how many evaluations the worker runs concurrently; the
// daemon sizes lease grants to that capacity.
type RegisterRequest struct {
	Name     string `json:"name"`
	Parallel int    `json:"parallel,omitempty"`
}

// RegisterResponse carries the assigned worker ID and the liveness
// contract: heartbeat at least every HeartbeatMS; silence past
// ExpiryMS (measured on the daemon's clock) retires the worker.
type RegisterResponse struct {
	ID          string `json:"id"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	ExpiryMS    int64  `json:"expiry_ms"`
}

// ClaimRequest long-polls for up to Max units (the worker's free batch
// slots). The daemon may return fewer — including only re-deliveries
// of leases the worker already holds — and never more than the
// capacity it computed from the worker's declared parallelism.
type ClaimRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms"`
	Max    int    `json:"max,omitempty"`
}

// Lease is one evaluation unit leased to this worker. Epoch, together
// with the worker ID, is the idempotency token a report must echo.
type Lease struct {
	Job   string   `json:"job"`
	Epoch int      `json:"epoch"`
	Unit  WireUnit `json:"unit"`
}

// WireUnit is search.EvalUnit as it crosses the wire. A unit key is
// the raw byte image of its sorted address set — generally not valid
// UTF-8, which encoding/json silently coerces to U+FFFD, corrupting
// the idempotency token and making every report of the unit
// undeliverable — so the key travels hex-encoded. Fields this version
// does not know, such as the scheduling hints older daemons sent, are
// ignored on decode.
type WireUnit struct {
	Key   string      `json:"key"` // hex-encoded search.EvalUnit.Key
	Label string      `json:"label,omitempty"`
	Kind  config.Kind `json:"kind"`
	Addrs []uint64    `json:"addrs,omitempty"`
	Final bool        `json:"final,omitempty"`
}

// ToWire hex-armors a unit for JSON transport.
func ToWire(u search.EvalUnit) WireUnit {
	return WireUnit{
		Key:   hex.EncodeToString([]byte(u.Key)),
		Label: u.Label,
		Kind:  u.Kind,
		Addrs: u.Addrs,
		Final: u.Final,
	}
}

// Unit restores the search-side unit, decoding the hex key.
func (wu WireUnit) Unit() (search.EvalUnit, error) {
	key, err := hex.DecodeString(wu.Key)
	if err != nil {
		return search.EvalUnit{}, fmt.Errorf("remote: undecodable unit key %q: %v", wu.Key, err)
	}
	return search.EvalUnit{
		Key:   string(key),
		Label: wu.Label,
		Kind:  wu.Kind,
		Addrs: wu.Addrs,
		Final: wu.Final,
	}, nil
}

// ClaimResponse: the worker's state plus every lease it now holds —
// re-deliveries first, then units newly assigned by this claim. Empty
// Leases with state "idle" means the long-poll window elapsed with no
// work; "quarantined" tells the worker to drain.
type ClaimResponse struct {
	State  string  `json:"state"`
	Leases []Lease `json:"leases,omitempty"`
}

// HeartbeatRequest refreshes the worker's lease clock and reports how
// many evaluations the worker is running right now, so the registry
// shows live saturation and the daemon can spot a wedged worker that
// still beats.
type HeartbeatRequest struct {
	Worker   string `json:"worker"`
	InFlight int    `json:"in_flight"`
}

// HeartbeatResponse reports the worker's registry state.
type HeartbeatResponse struct {
	State string `json:"state"`
}

// UnitReport is one unit's outcome inside a report batch: a verdict,
// or — when Error is non-empty — the worker-side failure that
// prevented one (the daemon requeues the unit and counts the strike
// toward quarantine). Key echoes the lease's hex-encoded unit key
// verbatim.
type UnitReport struct {
	Job     string         `json:"job"`
	Key     string         `json:"key"`
	Epoch   int            `json:"epoch"`
	Verdict search.Verdict `json:"verdict"`
	Error   string         `json:"error,omitempty"`
}

// ReportRequest delivers a batch of unit outcomes. Each entry carries
// its own idempotency token and is judged independently: a duplicate
// in position i never poisons position i+1.
type ReportRequest struct {
	Worker  string       `json:"worker"`
	Reports []UnitReport `json:"reports"`
}

// ReportResponse: Accepted[i] answers Reports[i]; false means that
// delivery was a duplicate or its lease was lost (both fine — the unit
// is in other hands).
type ReportResponse struct {
	Accepted []bool `json:"accepted"`
}
