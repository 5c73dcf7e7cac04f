package profile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"authorityflow/internal/storage"
)

// ErrNotFound means no profile exists under the requested id. HTTP
// layers map it to 404 with code profile_not_found.
var ErrNotFound = errors.New("profile: not found")

// DiskStore persists profile records under a directory, one file per
// profile fanned out over 256 two-hex-digit subdirectories (so a
// million profiles do not share one directory's lookup path). Writes go
// through storage.AtomicWriteFile — the same tmp+fsync+rename+dirsync
// crash-safety discipline as corpus snapshots — so a reader never
// observes a half-written record and a committed write survives a
// power cut (the parent-directory fsync is what makes the rename
// itself durable, not just atomic).
type DiskStore struct {
	dir string
}

// NewDiskStore opens (creating if needed) a profile directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: store dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

func (s *DiskStore) path(id string) string {
	fan := fmt.Sprintf("%02x", byte(fnv1a(id)))
	return filepath.Join(s.dir, fan, id+".afqp")
}

// Save durably writes a profile record (atomic replace).
func (s *DiskStore) Save(p *Profile) error {
	if !ValidID(p.ID) {
		return fmt.Errorf("profile: invalid id %q", p.ID)
	}
	path := s.path(p.ID)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data := p.Encode()
	return storage.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Load reads a profile record, returning ErrNotFound when none exists.
func (s *DiskStore) Load(id string) (*Profile, error) {
	if !ValidID(id) {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	p, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if p.ID != id {
		return nil, fmt.Errorf("%w: record names %q, path names %q", ErrCorrupt, p.ID, id)
	}
	return p, nil
}

// Delete removes a profile record; deleting a missing profile is not an
// error.
func (s *DiskStore) Delete(id string) error {
	if !ValidID(id) {
		return nil
	}
	err := os.Remove(s.path(id))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
