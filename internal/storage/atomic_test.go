package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestAtomicWriteFileReopen is the write-then-reopen durability check:
// the bytes handed to write() are exactly what a fresh open of the
// final path reads back, the temp file is gone, and overwriting an
// existing file replaces its content completely (no stale tail).
func TestAtomicWriteFileReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	payload := bytes.Repeat([]byte("authority-flow"), 1024)

	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reopened file: %d bytes, want %d identical bytes", len(got), len(payload))
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: stat err = %v", err)
	}

	// Overwrite with a SHORTER payload: rename must fully replace.
	short := []byte("v2")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(short)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, short) {
		t.Fatalf("overwrite left %q, want %q", got, short)
	}
}

// TestAtomicWriteFileFailure: an error from write() must leave neither
// the final file nor the temp file, and must not clobber an existing
// file under the final name.
func TestAtomicWriteFileFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("original"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("mid-write failure")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write callback's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("failed write clobbered previous content: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind after failure: stat err = %v", err)
	}

	// The temp file not creatable at all: the write must fail without
	// having touched path on the way (a create-and-truncate of path would).
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("replacement"))
		return err
	}); err == nil {
		t.Fatal("write succeeded with its temp path occupied: it does not go through a temp file")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "original" {
		t.Fatalf("uncreatable temp file clobbered previous content: %q, %v", got, err)
	}
}
