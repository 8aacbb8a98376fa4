package tbnet

import (
	"errors"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/httpd"
	"tbnet/internal/registry"
	"tbnet/internal/serial"
	"tbnet/internal/serve"
)

// Sentinel errors of the public API. Match them with errors.Is; every error
// returned by the package wraps one of these (or carries call-site context
// around it) rather than panicking on bad input.
var (
	// ErrShape reports an input tensor or sample shape that is incompatible
	// with the model or deployment it was given to.
	ErrShape = core.ErrShape

	// ErrNotFinalized reports an operation (Deploy, NewFleet) on a two-branch
	// model that has not been finalized with rollback (step 6).
	ErrNotFinalized = core.ErrNotFinalized

	// ErrSecureMemory reports a deployment whose secure branch does not fit
	// in the device's secure-memory budget.
	ErrSecureMemory = core.ErrSecureMemory

	// ErrServerClosed reports an inference issued to a closed Fleet.
	ErrServerClosed = serve.ErrClosed

	// ErrOverloaded reports a fleet request shed by admission control: the
	// fleet-wide in-flight cap was reached, or the per-request deadline
	// expired before a device answered.
	ErrOverloaded = fleet.ErrOverloaded

	// ErrDraining reports a fleet request refused because Drain has begun:
	// the fleet is finishing its admitted work before closing and accepts
	// nothing new. Over HTTP this maps to 503 with a Retry-After hint.
	ErrDraining = fleet.ErrDraining

	// ErrRateLimited reports an HTTP request refused by the daemon's
	// per-tenant token bucket before it reached the fleet. Over HTTP this
	// maps to 429 with a Retry-After hint.
	ErrRateLimited = httpd.ErrRateLimited

	// ErrBadOption reports an invalid value passed to a functional option of
	// NewPipeline or NewFleet.
	ErrBadOption = errors.New("tbnet: invalid option")

	// ErrUnknownModel reports an inference or swap addressed to a model name
	// the Fleet does not host.
	ErrUnknownModel = serve.ErrUnknownModel

	// ErrModelExists reports an AddModel under a name already hosted (use
	// SwapModel to replace a hosted model).
	ErrModelExists = serve.ErrModelExists

	// ErrBadArtifact reports a corrupt, truncated, or checksum-failing
	// persisted deployment artifact (LoadDeploymentOn, Registry.Load).
	ErrBadArtifact = serial.ErrBadFormat

	// ErrModelNotFound reports a Registry load of a name the store does not
	// hold.
	ErrModelNotFound = registry.ErrNotFound

	// ErrIntegrity reports a Registry artifact whose on-disk bytes no longer
	// match the content hash recorded in its manifest.
	ErrIntegrity = registry.ErrIntegrity
)
