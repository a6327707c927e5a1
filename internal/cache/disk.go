package cache

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Disk-entry framing: a one-line header followed by the raw payload.
//
//	diode-cache <version> <key> <payload-len> <crc32-hex>\n<payload>
//
// The header binds the entry to its key (a file renamed or copied under the
// wrong key reads as corrupt, not as a wrong answer) and the CRC covers the
// payload, so truncation and bit flips are detected. Bumping diskVersion
// invalidates every existing entry at once — old entries read as corrupt,
// which Get reports and callers count, never an error.
const (
	diskMagic   = "diode-cache"
	diskVersion = 1
)

// DiskStatus classifies a Store lookup.
type DiskStatus int

// Lookup outcomes. DiskCorrupt is a miss with a defect worth counting:
// the entry existed but was truncated, bit-flipped, mis-keyed or written by
// a different format version.
const (
	DiskMiss DiskStatus = iota
	DiskHit
	DiskCorrupt
)

// Store is a sharded file-per-key payload store. Writes are atomic
// (temp file + rename) so concurrent worker processes sharing a directory
// never observe half-written entries; reads treat every defect as a miss.
// All methods are best-effort: an unreadable directory degrades to a store
// that misses everything and stores nothing.
type Store struct {
	dir string
}

// NewStore returns a store rooted at dir. The directory is created lazily on
// first Put.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// Path returns where the entry for key lives (two-character shard
// subdirectories keep any one directory small).
func (s *Store) Path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".entry")
}

// Get returns the payload stored under key. An absent or unreadable entry is
// DiskMiss; an entry that exists but fails any framing check is DiskCorrupt
// (and the payload is nil either way).
func (s *Store) Get(key string) ([]byte, DiskStatus) {
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		return nil, DiskMiss
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, DiskCorrupt
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 5 || fields[0] != diskMagic || fields[1] != strconv.Itoa(diskVersion) || fields[2] != key {
		return nil, DiskCorrupt
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil || n < 0 {
		return nil, DiskCorrupt
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return nil, DiskCorrupt
	}
	sum, err := strconv.ParseUint(fields[4], 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE(payload) {
		return nil, DiskCorrupt
	}
	return payload, DiskHit
}

// Put stores the payload under key, reporting whether it was written. A
// failure (full disk, permissions) leaves at most a stale temp file behind,
// never a partial entry.
func (s *Store) Put(key string, payload []byte) bool {
	p := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return false
	}
	header := fmt.Sprintf("%s %d %s %d %08x\n", diskMagic, diskVersion, key, len(payload), crc32.ChecksumIEEE(payload))
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(append([]byte(header), payload...))
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), p) != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}
