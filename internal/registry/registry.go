// Package registry is TBNet's named model store: a directory of persisted
// deployment artifacts, each addressable by name, with a JSON manifest per
// entry carrying placement metadata and a SHA-256 content hash.
//
// The paper's deployment story is vendor-ships-artifacts: the pipeline runs
// offline, the finalized two-branch model is written out (internal/serial),
// and the device brings it up without ever seeing the training flow. The
// registry is the serving side of that story — a host points the serve/fleet
// layers at a store directory and loads models by name, integrity-checked,
// instead of being born from one in-process pipeline run.
//
// On-disk layout, per entry:
//
//	<dir>/<name>.tbd    the serial.SaveDeployment artifact
//	<dir>/<name>.json   the Entry manifest (device, shape, sha256, size, time)
//
// Writes go through a temp file + rename, so a crashed Save never leaves a
// half-written artifact under a live name.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tbnet/internal/serial"
)

// ErrNotFound reports a Load or manifest read for a name the store does not
// hold.
var ErrNotFound = errors.New("registry: model not found")

// ErrIntegrity reports an artifact whose bytes no longer match the content
// hash recorded in its manifest — on-disk corruption or tampering.
var ErrIntegrity = errors.New("registry: artifact integrity check failed")

// ErrBadName reports a model name the store refuses: empty, or containing
// characters outside [A-Za-z0-9._-] (names are file names; path separators
// and traversal are rejected outright).
var ErrBadName = errors.New("registry: invalid model name")

// Entry is one stored model's manifest: identity, placement metadata copied
// from the artifact, and the integrity record.
type Entry struct {
	// Name is the model's registry identity (also the artifact's base file
	// name).
	Name string `json:"name"`
	// Device is the registered hardware backend the artifact was sized for.
	Device string `json:"device"`
	// SampleShape is the [N,C,H,W] shape the deployment plan was sized for.
	SampleShape []int `json:"sample_shape"`
	// Precision is the artifact's numeric serving path ("f32" or "int8");
	// manifests written before quantized serving existed read back as "".
	Precision string `json:"precision,omitempty"`
	// SHA256 is the hex content hash of the artifact file; Load refuses an
	// artifact whose bytes hash differently.
	SHA256 string `json:"sha256"`
	// SizeBytes is the artifact file size recorded at save time.
	SizeBytes int64 `json:"size_bytes"`
	// SavedAt is the wall-clock save time (UTC).
	SavedAt time.Time `json:"saved_at"`
}

// Store is a directory-backed named model store. Create one with Open; a
// Store is safe for concurrent readers, and concurrent Saves of different
// names are safe (same-name writers race benignly — last rename wins).
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// checkName enforces the file-name-safe naming rule.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrBadName)
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("%w: %q starts with a dot", ErrBadName, name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("%w: %q contains %q (allowed: letters, digits, '.', '_', '-')",
				ErrBadName, name, r)
		}
	}
	return nil
}

// artifactPath and manifestPath are the entry's two on-disk files.
func (s *Store) artifactPath(name string) string { return filepath.Join(s.dir, name+".tbd") }
func (s *Store) manifestPath(name string) string { return filepath.Join(s.dir, name+".json") }

// Save persists art under name, overwriting any previous entry of that name,
// and returns the recorded manifest. The artifact is serialized once, hashed,
// and both files are written via temp + rename.
func (s *Store) Save(name string, art *serial.Artifact) (Entry, error) {
	if err := checkName(name); err != nil {
		return Entry{}, err
	}
	var buf bytes.Buffer
	if err := serial.SaveDeployment(&buf, art); err != nil {
		return Entry{}, fmt.Errorf("registry: serializing %q: %w", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	prec := art.Precision
	if prec == "" {
		prec = "f32"
	}
	e := Entry{
		Name:        name,
		Device:      art.Device,
		SampleShape: append([]int(nil), art.SampleShape...),
		Precision:   prec,
		SHA256:      hex.EncodeToString(sum[:]),
		SizeBytes:   int64(buf.Len()),
		SavedAt:     time.Now().UTC(),
	}
	manifest, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("registry: encoding manifest for %q: %w", name, err)
	}
	if err := writeAtomic(s.artifactPath(name), buf.Bytes()); err != nil {
		return Entry{}, fmt.Errorf("registry: writing artifact %q: %w", name, err)
	}
	if err := writeAtomic(s.manifestPath(name), append(manifest, '\n')); err != nil {
		return Entry{}, fmt.Errorf("registry: writing manifest %q: %w", name, err)
	}
	return e, nil
}

// writeAtomic writes data to path via a temp file in the same directory and
// an atomic rename.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads the named entry, verifies the artifact bytes against the
// manifest's content hash, and parses the deployment artifact. A missing
// entry fails with ErrNotFound; a hash mismatch fails with ErrIntegrity
// before any parsing happens.
func (s *Store) Load(name string) (*serial.Artifact, Entry, error) {
	e, err := s.Manifest(name)
	if err != nil {
		return nil, Entry{}, err
	}
	data, err := os.ReadFile(s.artifactPath(name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, Entry{}, fmt.Errorf("%w: %q has a manifest but no artifact", ErrNotFound, name)
		}
		return nil, Entry{}, fmt.Errorf("registry: reading artifact %q: %w", name, err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != e.SHA256 {
		return nil, Entry{}, fmt.Errorf("%w: %q hashes %s, manifest records %s",
			ErrIntegrity, name, got[:12], e.SHA256[:12])
	}
	art, err := serial.LoadDeployment(bytes.NewReader(data))
	if err != nil {
		return nil, Entry{}, fmt.Errorf("registry: parsing artifact %q: %w", name, err)
	}
	return art, e, nil
}

// Manifest reads the named entry's manifest without touching the artifact.
func (s *Store) Manifest(name string) (Entry, error) {
	if err := checkName(name); err != nil {
		return Entry{}, err
	}
	data, err := os.ReadFile(s.manifestPath(name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return Entry{}, fmt.Errorf("registry: reading manifest %q: %w", name, err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, fmt.Errorf("registry: decoding manifest %q: %w", name, err)
	}
	return e, nil
}

// List returns every entry's manifest, sorted by name. Manifests that fail
// to parse are skipped (a corrupted manifest should not hide the rest of the
// store); Load still reports them individually.
func (s *Store) List() ([]Entry, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("registry: listing store: %w", err)
	}
	var out []Entry
	for _, m := range matches {
		name := strings.TrimSuffix(filepath.Base(m), ".json")
		e, err := s.Manifest(name)
		if err != nil {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
