package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTransitions serializes transitions one per line:
// "<unix_ms> <down|up> <kind> <link> <reporter>". Link IDs and
// hostnames contain no spaces, so the format splits cleanly.
func WriteTransitions(w io.Writer, ts []Transition) error {
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		if _, err := fmt.Fprintf(bw, "%d %s %s %s %s\n",
			t.Time.UnixMilli(), t.Dir, t.Kind, t.Link, t.Reporter); err != nil {
			return err
		}
	}
	return bw.Flush()
}
