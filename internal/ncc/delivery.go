package ncc

import "fmt"

// delivery is the message-routing layer: it moves every active node's outbox
// into the destinations' inboxes at the end of a round, enforces the model's
// receive capacity, and keeps the spare receive buffers. It knows nothing
// about rounds advancing or node scheduling — the engine calls route once per
// barrier and reads back which awaiting nodes got mail.
type delivery struct {
	nodes    []*Node
	capacity int
	strict   bool

	recvCnt []int   // per-node receive count, current round
	touched []int   // scratch: indices with nonzero recvCnt this round
	woken   []*Node // scratch: awaiters woken this round, consumed before the next route

	// spare is a free list of empty inbox buffers. A node's inbox is handed
	// to its next step and stays valid until the node suspends again, at
	// which point the step returns it here (see Sim.step). A Sim runs on one
	// goroutine, so a plain slice suffices, and since Message holds no
	// pointers a spare buffer pins nothing and needs no clearing.
	spare [][]Message
}

func newDelivery(nodes []*Node, capacity int, strict bool) *delivery {
	return &delivery{
		nodes:    nodes,
		capacity: capacity,
		strict:   strict,
		recvCnt:  make([]int, len(nodes)),
	}
}

// buffer returns an empty receive buffer, reusing a spare one if available.
func (d *delivery) buffer() []Message {
	k := len(d.spare)
	if k == 0 {
		return make([]Message, 0, 8)
	}
	buf := d.spare[k-1]
	d.spare = d.spare[:k-1]
	return buf
}

// recycle returns a receive buffer to the free list.
func (d *delivery) recycle(buf []Message) {
	if cap(buf) > 0 {
		d.spare = append(d.spare, buf[:0])
	}
}

// route delivers every active node's outbox, enforcing receive capacity, and
// returns the awaiters that received mail plus the first strict-mode error.
// A woken awaiter's state becomes stateWoken, so a second message in the
// same round does not wake it again. Inbox order is deterministic: senders
// are processed in Gk-index order (active is sorted) and each outbox in send
// order. met is updated with message counts and congestion statistics for
// the round.
func (d *delivery) route(active []*Node, round int, met *Metrics) (woken []*Node, err error) {
	touched := d.touched[:0]
	woken = d.woken[:0]
	maxSent := 0
	for _, nd := range active {
		if len(nd.outbox) > maxSent {
			maxSent = len(nd.outbox)
		}
		for i := range nd.outbox {
			dsti := nd.outbox[i].dstIdx
			dst := d.nodes[dsti]
			if d.recvCnt[dsti] == 0 {
				touched = append(touched, int(dsti))
			}
			d.recvCnt[dsti]++
			if dst.inbox == nil {
				dst.inbox = d.buffer()
			}
			dst.inbox = append(dst.inbox, nd.outbox[i])
			met.Messages++
			if dst.state == stateAwait {
				dst.state = stateWoken
				woken = append(woken, dst)
			}
		}
		nd.outbox = nd.outbox[:0]
	}
	if maxSent > met.MaxSentPerRound {
		met.MaxSentPerRound = maxSent
	}
	for _, i := range touched {
		c := d.recvCnt[i]
		if c > met.MaxRecvPerRound {
			met.MaxRecvPerRound = c
		}
		if c > d.capacity {
			met.RecvViolations++
			if d.strict && err == nil {
				err = fmt.Errorf("ncc: round %d: node %d received %d messages (capacity %d)",
					round, d.nodes[i].id, c, d.capacity)
			}
		}
		d.recvCnt[i] = 0
	}
	d.touched = touched
	d.woken = woken
	return woken, err
}
