package api

import "netfail/internal/store"

// Slice-fed forms of the store-fed list bodies, so the encoder tests
// reach records no store holds: each record's names are quoted as it
// is written, where a store's body indexes its quoted catalog.

func (b *Body) FailuresOf(recs []store.FailureRecord) {
	_ = b.build("failures", func() error {
		for i := range recs {
			r := &recs[i]
			dst := append(append(b.next(), failureHead(int(r.Source))...), quoted(string(r.Link))...)
			b.buf = append(b.span(dst, r.Start, r.End), '}')
		}
		return nil
	})
}

func (b *Body) TransitionsOf(recs []store.TransitionRecord) {
	_ = b.build("transitions", func() error {
		for i := range recs {
			b.buf = b.transition(b.next(), &recs[i], quoted(string(recs[i].Link)), quoted(recs[i].Reporter))
		}
		return nil
	})
}

func (b *Body) MessagesOf(recs []store.MessageRecord) {
	_ = b.build("messages", func() error {
		for i := range recs {
			b.buf = b.message(b.next(), &recs[i], quoted(recs[i].Host))
		}
		return nil
	})
}
