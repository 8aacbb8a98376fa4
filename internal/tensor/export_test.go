package tensor

// WithI8Layout runs fn with PackI8Weights choosing one of its two layouts —
// the AMX tile blocks (amx), or the row-major one every lower int8 level
// shares (pinned at the scalar level) — and reports whether it could: this
// CPU may lack AMX.
func WithI8Layout(amx bool, fn func()) bool {
	if amx {
		return withI8Level(i8AMX, fn)
	}
	return withI8Level(i8Scalar, fn)
}
