package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// Profile is one user's durable personalization state: a sparse topic
// mixture over the panel terms and its blend factor. Every personalized
// answer is solved under the published global rates, so a profile
// carries no rates of its own. Profiles are treated as immutable values
// on the serving path — training clones, mutates the clone, and
// replaces — so a profile handed out by the manager is safe to read
// without locks.
type Profile struct {
	// ID names the profile; see ValidID for the accepted alphabet.
	ID string
	// Mixture holds non-negative topic weights over panel terms,
	// normalized to sum to 1 at blend time. Terms outside the current
	// generation's panel are dropped from the normalization, not the
	// record.
	Mixture map[string]float64
	// Beta is the blend factor of the personalized jump:
	// s_p = (1−β)·ŝ(Q) + β·mixture. 0 disables personalization; the
	// manager default applies when NaN or out of [0,1).
	Beta float64
	// Rev is the profile's revision counter, incremented on every
	// mutation (API update or feedback training); it participates in
	// answer-cache keys so any mutation invalidates the profile's
	// cached answers implicitly.
	Rev uint64
	// TrainedGeneration and TrainedRatesVersion record the pin the last
	// training ran against (diagnostics only — every blend reads its
	// vectors under the request's own pin).
	TrainedGeneration   uint64
	TrainedRatesVersion uint64
}

// Clone returns a deep copy; training mutates clones only.
func (p *Profile) Clone() *Profile {
	cp := *p
	cp.Mixture = make(map[string]float64, len(p.Mixture))
	for t, w := range p.Mixture {
		cp.Mixture[t] = w
	}
	return &cp
}

// footprint approximates the resident bytes of a decoded profile for
// LRU accounting.
func (p *Profile) footprint() int64 {
	n := int64(len(p.ID)) + 64
	for t := range p.Mixture {
		n += int64(len(t)) + 24
	}
	return n
}

// ValidID reports whether id is an acceptable profile identifier:
// 1..128 bytes of [A-Za-z0-9._-]. The alphabet is filename- and
// URL-safe, so ids map directly to store paths and route segments.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ---- binary codec ----
//
// Wire layout (little-endian), the checksummed-section discipline of
// storage/binsnap.go scaled down to a per-profile record:
//
//	magic    [8]byte "AFQPROF1"
//	version  uint32
//	count    uint32  number of sections
//	per section:
//	  id     uint32
//	  length uint32  payload bytes
//	  crc    uint32  CRC32-C of the payload
//	  payload
//
// Sections: meta (id string, beta, rev, trained stamps) and mixture
// (sorted term/weight pairs). Records written before profiles stopped
// learning rates may carry a third section, a rates-delta; like any
// unknown section it is checksum-verified and skipped. Every section is
// checksum-verified before decode; a damaged or truncated record fails
// with ErrCorrupt, never a panic.
const profVersion = 1

var profMagic = [8]byte{'A', 'F', 'Q', 'P', 'R', 'O', 'F', '1'}

const (
	profSecMeta    = 1
	profSecMixture = 2
)

// ErrCorrupt means a profile record failed magic, checksum or
// structural validation on load.
var ErrCorrupt = errors.New("profile: corrupt profile record")

var profCRC = crc32.MakeTable(crc32.Castagnoli)

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// Encode serializes the profile record.
func (p *Profile) Encode() []byte {
	meta := appendStr(nil, p.ID)
	meta = appendF64(meta, p.Beta)
	meta = appendU64(meta, p.Rev)
	meta = appendU64(meta, p.TrainedGeneration)
	meta = appendU64(meta, p.TrainedRatesVersion)

	terms := make([]string, 0, len(p.Mixture))
	for t := range p.Mixture {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	mix := appendU32(nil, uint32(len(terms)))
	for _, t := range terms {
		mix = appendStr(mix, t)
		mix = appendF64(mix, p.Mixture[t])
	}

	secs := []struct {
		id      uint32
		payload []byte
	}{{profSecMeta, meta}, {profSecMixture, mix}}

	out := append([]byte(nil), profMagic[:]...)
	out = appendU32(out, profVersion)
	out = appendU32(out, uint32(len(secs)))
	for _, sec := range secs {
		out = appendU32(out, sec.id)
		out = appendU32(out, uint32(len(sec.payload)))
		out = appendU32(out, crc32.Checksum(sec.payload, profCRC))
		out = append(out, sec.payload...)
	}
	return out
}

type profReader struct {
	b   []byte
	off int
}

func (r *profReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *profReader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *profReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *profReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.b) {
		return "", ErrCorrupt
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Decode parses a profile record, verifying magic, version and every
// section checksum.
func Decode(data []byte) (*Profile, error) {
	if len(data) < 16 || [8]byte(data[:8]) != profMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version != profVersion {
		return nil, fmt.Errorf("profile: record version %d, want %d", version, profVersion)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	if count > 16 {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, count)
	}
	p := &Profile{Mixture: map[string]float64{}}
	off := 16
	for s := uint32(0); s < count; s++ {
		if off+12 > len(data) {
			return nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
		}
		id := binary.LittleEndian.Uint32(data[off:])
		length := binary.LittleEndian.Uint32(data[off+4:])
		crc := binary.LittleEndian.Uint32(data[off+8:])
		off += 12
		if off+int(length) > len(data) {
			return nil, fmt.Errorf("%w: section %d extends past end", ErrCorrupt, id)
		}
		payload := data[off : off+int(length)]
		off += int(length)
		if crc32.Checksum(payload, profCRC) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
		}
		r := &profReader{b: payload}
		switch id {
		case profSecMeta:
			var err error
			if p.ID, err = r.str(); err != nil {
				return nil, err
			}
			if p.Beta, err = r.f64(); err != nil {
				return nil, err
			}
			if p.Rev, err = r.u64(); err != nil {
				return nil, err
			}
			if p.TrainedGeneration, err = r.u64(); err != nil {
				return nil, err
			}
			if p.TrainedRatesVersion, err = r.u64(); err != nil {
				return nil, err
			}
		case profSecMixture:
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				t, err := r.str()
				if err != nil {
					return nil, err
				}
				w, err := r.f64()
				if err != nil {
					return nil, err
				}
				p.Mixture[t] = w
			}
		default:
			// Unknown sections — a newer writer's, or an older writer's
			// rates-delta (section 3) — are skipped.
		}
	}
	if !ValidID(p.ID) {
		return nil, fmt.Errorf("%w: invalid profile id", ErrCorrupt)
	}
	return p, nil
}
