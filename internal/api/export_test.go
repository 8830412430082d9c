package api

import "netfail/internal/store"

// Slice-fed forms of the store-fed list bodies, so the encoder tests
// reach records no store holds.

func (b *Body) FailuresOf(recs []store.FailureRecord) {
	_ = build(b, "failures", eachOf(recs), (*Body).failure)
}

func (b *Body) TransitionsOf(recs []store.TransitionRecord) {
	_ = build(b, "transitions", eachOf(recs), (*Body).transition)
}

func (b *Body) MessagesOf(recs []store.MessageRecord) {
	_ = build(b, "messages", eachOf(recs), (*Body).message)
}
