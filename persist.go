package tbnet

import (
	"errors"
	"fmt"
	"io"

	"tbnet/internal/core"
	"tbnet/internal/registry"
	"tbnet/internal/serial"
	"tbnet/internal/tee"
)

// SaveDeployment writes a live deployment as a self-describing, checksummed
// artifact: the finalized two-branch weights and channel alignment plus the
// placement metadata (the device's registered name and the [N,C,H,W] sample
// shape the session was sized for). An int8 deployment is saved in the
// quantized artifact format — int8 weights and per-channel scales instead of
// the float32 tensors — and restores onto the int8 serving path. In both
// cases LoadDeploymentOn brings the artifact back up bit-identically — a
// saved-then-loaded deployment produces exactly the labels the original
// would.
func SaveDeployment(w io.Writer, dep *Deployment) error {
	if dep == nil {
		return fmt.Errorf("%w: nil deployment", ErrBadOption)
	}
	return serial.SaveDeployment(w, artifactFor(dep))
}

// artifactFor snapshots a live deployment into its serialized form,
// dispatching on the deployment's precision.
func artifactFor(dep *Deployment) *serial.Artifact {
	art := &serial.Artifact{
		Precision:   string(dep.Precision()),
		Device:      dep.Device.Name(),
		SampleShape: dep.SampleShape(),
	}
	if dep.Precision() == core.PrecisionInt8 {
		art.QMR, art.QMT = dep.Quantized()
		art.Align = dep.Snapshot().Align
	} else {
		art.TB = dep.Snapshot()
	}
	return art
}

// LoadDeploymentOn reads an artifact written by SaveDeployment and re-deploys
// it: the artifact's payload checksum is verified and the model is placed
// with the saved sample shape on device — or, with a nil device, on the
// backend the artifact names, resolved in the registry. The weights are
// device-independent, so the restored outputs stay bit-identical on any
// backend; only the modeled cost changes. Corrupt input fails with an error
// wrapping ErrBadArtifact; a saved device name this build does not register
// fails with ErrBadOption.
func LoadDeploymentOn(r io.Reader, device Device) (*Deployment, error) {
	art, err := serial.LoadDeployment(r)
	if err != nil {
		return nil, fmt.Errorf("tbnet: loading deployment: %w", err)
	}
	return deployArtifact(art, device)
}

// deployArtifact places a parsed artifact onto device (nil resolves the
// artifact's saved device name).
func deployArtifact(art *serial.Artifact, device Device) (*Deployment, error) {
	dep, err := art.Deploy(device)
	if errors.Is(err, tee.ErrUnknownDevice) {
		return nil, fmt.Errorf("%w: %w", ErrBadOption, err)
	}
	if err != nil {
		return nil, fmt.Errorf("tbnet: re-deploying artifact: %w", err)
	}
	return dep, nil
}

// RegistryEntry is one stored model's manifest: its name, the device and
// sample shape it was sized for, and the SHA-256 content hash Load verifies
// the artifact bytes against.
type RegistryEntry = registry.Entry

// Registry is a directory-backed named store of deployment artifacts — the
// vendor-ships-artifacts side of the paper's deployment story. Save persists
// a live deployment under a name; Load re-deploys it (integrity-checked);
// List enumerates the manifests. Open one with OpenRegistry. A Registry is
// safe for concurrent readers.
type Registry struct {
	store *registry.Store
}

// OpenRegistry opens (creating if needed) a model registry rooted at dir.
func OpenRegistry(dir string) (*Registry, error) {
	s, err := registry.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Registry{store: s}, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.store.Dir() }

// Save persists dep under name (overwriting a previous entry of that name)
// and returns the recorded manifest. Names are file-name-safe identifiers:
// letters, digits, '.', '_', '-'.
func (r *Registry) Save(name string, dep *Deployment) (RegistryEntry, error) {
	if dep == nil {
		return RegistryEntry{}, fmt.Errorf("%w: nil deployment", ErrBadOption)
	}
	return r.store.Save(name, artifactFor(dep))
}

// Load re-deploys the named entry on its saved device. The artifact bytes
// are verified against the manifest's content hash first: corruption fails
// with ErrIntegrity, a missing name with ErrModelNotFound.
func (r *Registry) Load(name string) (*Deployment, error) {
	return r.LoadOn(name, nil)
}

// LoadOn is Load re-targeted onto an explicit hardware backend (nil keeps
// the device recorded in the artifact).
func (r *Registry) LoadOn(name string, device Device) (*Deployment, error) {
	art, _, err := r.store.Load(name)
	if err != nil {
		return nil, err
	}
	return deployArtifact(art, device)
}

// List returns every entry's manifest, sorted by name.
func (r *Registry) List() ([]RegistryEntry, error) { return r.store.List() }
