package salvage

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// JSONObject extracts the first complete JSON object from raw,
// tolerating garbage before and after it — the shared salvage step for
// small JSON metadata files (capture and store manifests), where
// corruption *inside* the object stays fatal but a stray log line or
// torn trailing bytes around it should not discard the file. It
// returns the object's bytes (a view into raw), a report accounting
// the garbage lines skipped, and false when no complete object exists.
func JSONObject(raw []byte) ([]byte, *Report, bool) {
	rep := &Report{}
	start := bytes.IndexByte(raw, '{')
	if start < 0 {
		return nil, nil, false
	}
	end := matchBrace(raw, start)
	if end < 0 {
		return nil, nil, false
	}
	rep.Kept = 1
	for _, lineNo := range garbageLines(raw, start, end) {
		rep.Skip(lineNo, "garbage around JSON object")
	}
	return raw[start : end+1], rep, true
}

// DecodeJSON decodes one JSON value from r into v and rejects anything
// but whitespace after it — the strict counterpart of JSONObject, which
// the capture, simulator and store manifest readers share so that a
// strict open never accepts bytes a lenient one would account as
// skipped.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// matchBrace returns the index of the brace closing the object opened
// at start, honouring JSON string syntax, or -1.
func matchBrace(data []byte, start int) int {
	depth, inString, escaped := 0, false, false
	for i := start; i < len(data); i++ {
		c := data[i]
		if inString {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// garbageLines returns the 1-based line numbers of non-blank lines
// falling entirely outside data[start:end+1].
func garbageLines(data []byte, start, end int) []int {
	var out []int
	lineNo, lineStart := 0, 0
	for i := 0; i <= len(data); i++ {
		if i < len(data) && data[i] != '\n' {
			continue
		}
		lineNo++
		line := bytes.TrimSpace(data[lineStart:i])
		if len(line) > 0 && (i <= start || lineStart > end) {
			out = append(out, lineNo)
		}
		lineStart = i + 1
	}
	return out
}
