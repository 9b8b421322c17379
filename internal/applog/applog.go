// Package applog is the append-only line log behind the checkpoint
// journal (internal/search) and the verdict cache (internal/jobs): a
// header line, then one record per line. Callers own only their line
// formats; DESIGN.md §6 states the file rules. The first failed fsync
// sticks, because a retried fsync can report success for writes the
// kernel already dropped.
package applog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Action is a parser's ruling on one complete line of an opened log:
// Keep (loaded) and Skip (a shape the caller does not know) leave the
// line in the file; Stop cuts the file before it, dropping it and every
// line after it.
type Action int

const (
	Keep Action = iota
	Skip
	Stop
)

// file is the log's handle on its backing file. Tests substitute a fake
// that injects storage faults.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is an open append-only line log. It is safe for concurrent use.
type Log struct {
	mu          sync.Mutex
	f           file  // nil once closed
	pending     int   // appends since the last fsync
	err         error // the first failed fsync, returned from then on
	groupCommit time.Duration
	lastSync    time.Time
}

// Create creates (or truncates) the log at path with the given header.
func Create(path, header string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return load(path, f, strings.NewReader(""), header, nil, nil)
}

// Open opens the log at path; parse rules on each complete line after
// the header, in file order. With a header, a missing or empty file is
// created with it and an existing file's header must equal it. Without
// one, the file must exist and check validates its header.
func Open(path, header string, check func(header string) error, parse func(line string) Action) (*Log, error) {
	flag := os.O_RDWR | os.O_APPEND
	if header != "" {
		flag |= os.O_CREATE
		check = func(h string) error {
			if h != header {
				return fmt.Errorf("applog: %s: header %q, want %q", path, h, header)
			}
			return nil
		}
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return load(path, f, f, header, check, parse)
}

// load reads the log's content from r, writing header to an empty file
// when header is non-empty, and cuts f after the last kept or skipped
// line. On error f is closed.
func load(name string, f file, r io.Reader, header string, check func(string) error, parse func(string) Action) (*Log, error) {
	br := bufio.NewReader(r)
	h, err := br.ReadString('\n')
	switch {
	case err == nil:
		err = check(strings.TrimSuffix(h, "\n"))
	case h == "" && header != "":
		if _, err = io.WriteString(f, header+"\n"); err == nil {
			if err = f.Sync(); err == nil {
				return &Log{f: f}, nil
			}
		}
	default:
		err = fmt.Errorf("applog: %s: unreadable header %q: %w", name, h, err)
	}
	good := int64(len(h)) // offset past the last kept or skipped line
	for err == nil {
		line, rerr := br.ReadString('\n')
		if rerr == io.EOF || rerr == nil && parse(strings.TrimSuffix(line, "\n")) == Stop {
			err = f.Truncate(good) // cuts a torn tail, or the stop line and all after
			break
		}
		err = rerr
		good += int64(len(line))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes line (which must not contain a newline) as one record
// and returns how many records await an fsync.
func (l *Log) Append(line string) (pending int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, os.ErrClosed
	}
	if _, err := io.WriteString(l.f, line+"\n"); err != nil {
		return 0, err
	}
	l.pending++
	return l.pending, nil
}

// Sync fsyncs the records appended since the last fsync. Under
// SetGroupCommit a call landing inside the commit window returns at once
// with the records still buffered.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil && l.groupCommit > 0 && l.pending > 0 && time.Since(l.lastSync) < l.groupCommit {
		return nil
	}
	return l.syncLocked()
}

// SetGroupCommit rate-limits Sync to one fsync per window d; zero
// restores an fsync on every call. Close always fsyncs.
func (l *Log) SetGroupCommit(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.groupCommit = d
}

func (l *Log) syncLocked() error {
	if l.err != nil || l.f == nil || l.pending == 0 {
		return l.err
	}
	if l.err = l.f.Sync(); l.err != nil {
		return l.err
	}
	l.pending = 0
	l.lastSync = time.Now()
	return nil
}

// Close fsyncs pending records and releases the file. After a failed
// fsync it returns that error, as every later call does.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
