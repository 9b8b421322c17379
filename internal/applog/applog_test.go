package applog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fakeFile is an in-memory log file that injects storage faults.
type fakeFile struct {
	data     []byte
	syncs    int   // successful and failed Sync calls
	tearAt   int   // when positive, the next Write keeps this many bytes and fails
	writeErr error // the next Write's error (with tearAt bytes written)
	syncErr  error
	truncErr error
	closed   bool
}

func (f *fakeFile) Write(p []byte) (int, error) {
	if err := f.writeErr; err != nil {
		n := min(f.tearAt, len(p))
		f.data = append(f.data, p[:n]...)
		f.writeErr, f.tearAt = nil, 0
		return n, err
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *fakeFile) Sync() error {
	f.syncs++
	return f.syncErr
}

func (f *fakeFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	f.data = f.data[:size]
	return nil
}

func (f *fakeFile) Close() error {
	f.closed = true
	return nil
}

const testHeader = "applog-test v1"

// open loads f as Open with a header would, keeping every line but those
// starting "bad" (stopped at) and "skip" (skipped); it returns the log
// and the lines kept.
func open(t *testing.T, f *fakeFile) (*Log, []string, error) {
	t.Helper()
	f.closed = false
	var kept []string
	check := func(h string) error {
		if h != testHeader {
			return errors.New("foreign header")
		}
		return nil
	}
	l, err := load("fake", f, bytes.NewReader(bytes.Clone(f.data)), testHeader, check, func(line string) Action {
		switch {
		case strings.HasPrefix(line, "bad"):
			return Stop
		case strings.HasPrefix(line, "skip"):
			return Skip
		}
		kept = append(kept, line)
		return Keep
	})
	return l, kept, err
}

// TestLoadRules: Keep and Skip lines stay in the file, opening cuts it
// before the first Stop line and before a torn tail, and a foreign
// header refuses the file.
func TestLoadRules(t *testing.T) {
	f := &fakeFile{data: []byte(testHeader + "\na 1\nskip 2\nb 3\nbad 4\nc 5\ntorn")}
	l, kept, err := open(t, f)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a 1", "b 3"}; strings.Join(kept, "|") != strings.Join(want, "|") {
		t.Errorf("kept %q, want %q", kept, want)
	}
	if got, want := string(f.data), testHeader+"\na 1\nskip 2\nb 3\n"; got != want {
		t.Errorf("file after open = %q, want %q", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f = &fakeFile{data: []byte("other v1\na 1\n")}
	if _, _, err := open(t, f); err == nil || !f.closed {
		t.Errorf("foreign header: err = %v, closed = %v", err, f.closed)
	}
	f = &fakeFile{data: []byte(testHeader)}
	if _, _, err := open(t, f); err == nil || !f.closed {
		t.Errorf("torn header: err = %v, closed = %v", err, f.closed)
	}
}

// TestFreshHeaderSyncedOnce: creating a log writes its header and
// fsyncs it exactly once; closing with nothing appended adds no fsync.
func TestFreshHeaderSyncedOnce(t *testing.T) {
	f := &fakeFile{}
	l, _, err := open(t, f)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(f.data); got != testHeader+"\n" {
		t.Errorf("fresh log = %q", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 1 {
		t.Errorf("%d fsyncs creating and closing a fresh log, want 1", f.syncs)
	}
}

// TestTornWrite: a short write tears a line; reopening cuts the torn
// tail, and the next append starts a fresh line.
func TestTornWrite(t *testing.T) {
	f := &fakeFile{}
	l, _, err := open(t, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("a 1"); err != nil {
		t.Fatal(err)
	}
	f.writeErr, f.tearAt = syscall.EIO, 3
	if _, err := l.Append("b 22"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append err = %v, want EIO", err)
	}
	l.Close()
	if got, want := string(f.data), testHeader+"\na 1\nb 2"; got != want {
		t.Fatalf("file after torn write = %q, want %q", got, want)
	}

	l, kept, err := open(t, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0] != "a 1" {
		t.Errorf("reopen kept %q, want [a 1]", kept)
	}
	if _, err := l.Append("c 3"); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, want := string(f.data), testHeader+"\na 1\nc 3\n"; got != want {
		t.Errorf("file after reopen and append = %q, want %q", got, want)
	}
}

// TestWriteErrorSticks: after a torn write, the next append must not
// glue onto the torn bytes. Every later Append, Sync and Close returns
// the write error and writes nothing, and a reopen cuts the torn tail.
func TestWriteErrorSticks(t *testing.T) {
	f := &fakeFile{}
	l, _, err := open(t, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("a 1"); err != nil {
		t.Fatal(err)
	}
	f.writeErr, f.tearAt = syscall.EIO, 3
	if _, err := l.Append("b 22"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append err = %v, want EIO", err)
	}
	syncs := f.syncs
	if _, err := l.Append("c 3"); !errors.Is(err, syscall.EIO) {
		t.Errorf("Append after a torn write: err = %v, want EIO", err)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Sync after a torn write: err = %v, want EIO", err)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Close after a torn write: err = %v, want EIO", err)
	}
	if got, want := string(f.data), testHeader+"\na 1\nb 2"; got != want {
		t.Errorf("file after torn write and append = %q, want %q", got, want)
	}
	if f.syncs != syncs {
		t.Errorf("%d fsyncs after the torn write, want none", f.syncs-syncs)
	}

	if l, _, err = open(t, f); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("c 3"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(f.data), testHeader+"\na 1\nc 3\n"; got != want {
		t.Errorf("file after reopen and append = %q, want %q", got, want)
	}
}

// TestAppendNoSpace: ENOSPC on append is returned and leaves the
// pending count where it was.
func TestAppendNoSpace(t *testing.T) {
	f := &fakeFile{}
	l, _, err := open(t, f)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append("a 1"); err != nil {
		t.Fatal(err)
	}
	f.writeErr = syscall.ENOSPC
	if _, err := l.Append("b 2"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on a full disk: err = %v, want ENOSPC", err)
	}
	if got := l.pending; got != 1 {
		t.Errorf("pending = %d after a failed append, want 1", got)
	}
}

// TestSyncErrorSticks: after the first failed fsync every Append, Sync
// and Close returns that error, and none fsyncs again, even once the
// device would report success.
func TestSyncErrorSticks(t *testing.T) {
	f := &fakeFile{}
	l, _, err := open(t, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("a 1"); err != nil {
		t.Fatal(err)
	}
	f.syncErr = syscall.EIO
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync err = %v, want EIO", err)
	}
	syncs, size := f.syncs, len(f.data)
	f.syncErr = nil
	if _, err := l.Append("b 2"); !errors.Is(err, syscall.EIO) {
		t.Errorf("Append after a failed fsync: err = %v, want EIO", err)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Sync after a failed fsync: err = %v, want EIO", err)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Close after a failed fsync: err = %v, want EIO", err)
	}
	if !f.closed {
		t.Error("Close after a failed fsync left the file open")
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Errorf("second Close: err = %v, want EIO", err)
	}
	if f.syncs != syncs || len(f.data) != size {
		t.Errorf("after the failed fsync: %d more fsyncs, %d more bytes, want none",
			f.syncs-syncs, len(f.data)-size)
	}
}

// TestTruncateFailsOnOpen: a failed cut on open closes the file and
// returns the error.
func TestTruncateFailsOnOpen(t *testing.T) {
	f := &fakeFile{data: []byte(testHeader + "\na 1\ntorn"), truncErr: syscall.EROFS}
	if _, _, err := open(t, f); !errors.Is(err, syscall.EROFS) {
		t.Errorf("open err = %v, want EROFS", err)
	}
	if !f.closed {
		t.Error("failed open left the file open")
	}
}

// TestGroupCommit: under SetGroupCommit a Sync landing inside the
// commit window leaves its appends buffered, a zero window restores
// sync-every-call, and Close always makes everything durable.
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}

	// Prime lastSync so the next Sync lands inside the window.
	if _, err := l.Append("k0 pass"); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.SetGroupCommit(time.Hour)
	if _, err := l.Append("k1 pass"); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.pending == 0 {
		t.Fatal("Sync inside the group-commit window fsynced eagerly")
	}
	// A zero window restores sync-every-call.
	l.SetGroupCommit(0)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.pending; got != 0 {
		t.Fatalf("pending = %d after Sync with group commit off, want 0", got)
	}
	// Close syncs regardless of the window: every record must be
	// durable for a reopening caller.
	l.SetGroupCommit(time.Hour)
	if _, err := l.Append("k2 fail"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	r, err := Open(path, testHeader, nil, func(string) Action { n++; return Keep })
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n != 3 {
		t.Fatalf("reopened %d records, want 3", n)
	}
}

// TestOpenMissing: Open creates a missing log only when given its header.
func TestOpenMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	keep := func(string) Action { return Keep }
	if _, err := Open(path, "", func(string) error { return nil }, keep); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open of a missing log without a header: err = %v, want ErrNotExist", err)
	}
	l, err := Open(path, testHeader, nil, keep)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != testHeader+"\n" {
		t.Errorf("created log = %q, %v", data, err)
	}
}
