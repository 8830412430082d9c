package syslog

import (
	"bufio"
	"io"
	"time"
)

// WriteLog writes messages to w, one rendered line each: the on-disk
// archive format the analysis pipeline reads back. Every line is
// rendered into one reused buffer.
func WriteLog(w io.Writer, messages []*Message) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 256) // a rendered link-state line is about 150 bytes
	for _, m := range messages {
		line = append(m.AppendRender(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLog parses a log written by WriteLog. Unparseable lines are
// counted, not fatal, matching operational reality.
//
// RFC 3164 timestamps carry no year, so a single fixed reference
// would misplace messages more than six months from it — fatal for a
// 13-month archive. Logs are chronological, so the reader resolves
// each line against a rolling reference: the previous message's
// resolved time (seeded by ref, the archive's start).
func ReadLog(r io.Reader, ref time.Time) (messages []*Message, badLines int, err error) {
	// One tokenizer per archive: messages come out with interned
	// (canonical, shared) strings instead of per-line copies, and the
	// scanner's byte buffer is never converted to a throwaway string.
	tok := NewTokenizer()
	rolling := ref
	err = ScanLog(r, func(_ int, line []byte) error {
		m := new(Message)
		if perr := tok.ParseBytes(line, rolling, m); perr != nil {
			badLines++
			return nil
		}
		if m.Timestamp.After(rolling) {
			rolling = m.Timestamp
		}
		messages = append(messages, m)
		return nil
	})
	return messages, badLines, err
}

// ScanLog calls fn with every non-empty line of a log written by
// WriteLog and its 1-based line number, stopping at fn's first error.
// The line is only valid during the call.
func ScanLog(r io.Reader, fn func(lineNo int, line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if line := sc.Bytes(); len(line) > 0 {
			if err := fn(lineNo, line); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}
