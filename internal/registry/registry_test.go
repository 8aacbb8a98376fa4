package registry

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/serial"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testArtifact builds a small finalized deployment artifact.
func testArtifact(t testing.TB, seed uint64) *serial.Artifact {
	t.Helper()
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	return &serial.Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}}
}

func TestSaveLoadList(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := testArtifact(t, 1)
	e, err := s.Save("vgg-prod", art)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "vgg-prod" || e.Device != "rpi3" || len(e.SHA256) != 64 || e.SizeBytes <= 0 {
		t.Fatalf("manifest = %+v", e)
	}
	if _, err := s.Save("candidate", testArtifact(t, 2)); err != nil {
		t.Fatal(err)
	}

	got, ge, err := s.Load("vgg-prod")
	if err != nil {
		t.Fatal(err)
	}
	if ge.SHA256 != e.SHA256 {
		t.Fatalf("load manifest hash %s, want %s", ge.SHA256, e.SHA256)
	}
	wantW := art.TB.MR.Params()[0].Value.Data()
	gotW := got.TB.MR.Params()[0].Value.Data()
	for i := range wantW {
		if wantW[i] != gotW[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}

	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "candidate" || entries[1].Name != "vgg-prod" {
		t.Fatalf("List() = %+v", entries)
	}
}

func TestSaveOverwritesAndRehashes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.Save("m", testArtifact(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Save("m", testArtifact(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if e1.SHA256 == e2.SHA256 {
		t.Fatal("different weights hashed identically")
	}
	if _, _, err := s.Load("m"); err != nil {
		t.Fatalf("load after overwrite: %v", err)
	}
}

func TestLoadDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("m", testArtifact(t, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "m.tbd")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("m"); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered load err = %v, want ErrIntegrity", err)
	}
}

func TestLoadMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing load err = %v, want ErrNotFound", err)
	}
}

func TestBadNamesRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := testArtifact(t, 1)
	for _, name := range []string{"", "a/b", "..", ".hidden", "a b", "x\x00y"} {
		if _, err := s.Save(name, art); !errors.Is(err, ErrBadName) {
			t.Fatalf("Save(%q) err = %v, want ErrBadName", name, err)
		}
		if _, _, err := s.Load(name); !errors.Is(err, ErrBadName) {
			t.Fatalf("Load(%q) err = %v, want ErrBadName", name, err)
		}
	}
}

func TestListSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("m", testArtifact(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "m" {
		t.Fatalf("List() = %+v", entries)
	}
}
