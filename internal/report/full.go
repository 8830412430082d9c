package report

import (
	"bytes"
	"context"
	"io"

	"netfail/internal/core"
	"netfail/internal/obs"
)

// FullReport renders every table and figure of the paper's evaluation
// section — Tables 1–7, the false-positive and ambiguity-policy
// breakdowns, the window-size sweep, and Figure 1 — computed by
// Analysis.TablesContext on a pool of the given size, which gives the
// same bytes for every size. Cancellation returns ctx's error.
func FullReport(ctx context.Context, w io.Writer, a *core.Analysis, configFiles, lspUpdates, parallelism int) error {
	ctx, done := obs.Stage(ctx, "report")
	defer done()
	t, err := a.TablesContext(ctx, configFiles, lspUpdates, parallelism)
	if err != nil {
		return err
	}
	return Write(w, &t)
}

// Write renders computed tables in the canonical order, a blank line
// between sections, with one write to w.
func Write(w io.Writer, t *core.Tables) error {
	var buf bytes.Buffer
	for i, render := range []func(io.Writer) error{
		func(w io.Writer) error { return RenderTable1(w, t.Table1) },
		func(w io.Writer) error { return RenderTable2(w, t.Table2) },
		func(w io.Writer) error { return RenderTable3(w, t.Table3) },
		func(w io.Writer) error { return RenderTable4(w, t.Table4) },
		func(w io.Writer) error { return RenderFalsePositives(w, t.FalsePositives) },
		func(w io.Writer) error { return RenderTable5(w, t.Table5) },
		func(w io.Writer) error { return RenderTable6(w, t.Table6) },
		func(w io.Writer) error { return RenderPolicies(w, t.Policies) },
		func(w io.Writer) error { return RenderTable7(w, t.Table7) },
		func(w io.Writer) error { return RenderKnee(w, t.Knee) },
		func(w io.Writer) error { return RenderFigure1(w, t.Figure1) },
	} {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := render(&buf); err != nil {
			return err
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}
