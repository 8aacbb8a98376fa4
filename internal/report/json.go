package report

import (
	"encoding/json"
	"io"
)

// Machine-readable renderers: every artifact type serializes to one JSON
// object, the form the CLI's -json flag prints.

// RenderJSON writes the table as a JSON object {title, header, rows} plus,
// when set, the device name and peak secure-memory bytes the artifact was
// modeled with.
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Title           string     `json:"title"`
		Device          string     `json:"device,omitempty"`
		PeakSecureBytes int64      `json:"peak_secure_bytes,omitempty"`
		Header          []string   `json:"header"`
		Rows            [][]string `json:"rows"`
	}{t.Title, t.Device, t.PeakSecureBytes, t.Header, t.Rows})
}

// RenderSeriesJSON writes named point series as one JSON object.
func RenderSeriesJSON(w io.Writer, title string, series []Series) error {
	type s struct {
		Name   string       `json:"name"`
		Points [][2]float64 `json:"points"`
	}
	out := struct {
		Title  string `json:"title"`
		Series []s    `json:"series"`
	}{Title: title}
	for _, sr := range series {
		out.Series = append(out.Series, s{sr.Name, sr.Points})
	}
	return json.NewEncoder(w).Encode(out)
}

// RenderJSON writes the histogram's bins and summary as a JSON object.
func (h *Histogram) RenderJSON(w io.Writer, label string) error {
	return json.NewEncoder(w).Encode(struct {
		Label  string  `json:"label"`
		Lo     float64 `json:"lo"`
		Hi     float64 `json:"hi"`
		N      int     `json:"n"`
		Mean   float64 `json:"mean"`
		Counts []int   `json:"counts"`
	}{label, h.Lo, h.Hi, h.N, h.Mean(), h.Counts})
}
