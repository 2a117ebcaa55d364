package ncc

import (
	"fmt"
	"sync"
)

// delivery is the message-routing layer: it moves every active node's outbox
// into the destinations' inboxes at the end of a round, enforces the model's
// receive capacity, and owns the pool of receive buffers. It knows nothing
// about rounds advancing or node scheduling — the engine calls route once per
// barrier and reads back which awaiting nodes got mail.
type delivery struct {
	index    map[ID]int
	nodes    []*Node
	capacity int
	strict   bool

	recvCnt []int   // per-node receive count, current round
	touched []int   // scratch: indices with nonzero recvCnt this round
	woken   []*Node // scratch: awaiters woken this round, consumed before the next route

	// bufPool recycles inbox slices. A node's inbox slice is handed to its
	// next step and stays valid until the node suspends again, at which
	// point the step returns it here (see Sim.step). Pooling the buffers
	// removes the dominant per-round allocation of busy protocols.
	// ptrPool recycles the *[]Message wrapper objects themselves so that
	// Put never escapes a freshly allocated pointer (the classic sync.Pool
	// trap that would hand the allocation right back).
	bufPool sync.Pool
	ptrPool sync.Pool
}

func newDelivery(index map[ID]int, nodes []*Node, capacity int, strict bool) *delivery {
	return &delivery{
		index:    index,
		nodes:    nodes,
		capacity: capacity,
		strict:   strict,
		recvCnt:  make([]int, len(nodes)),
	}
}

// buffer returns an empty receive buffer, reusing a pooled one if available.
func (d *delivery) buffer() []Message {
	p, _ := d.bufPool.Get().(*[]Message)
	if p == nil {
		return make([]Message, 0, 8)
	}
	buf := *p
	*p = nil
	d.ptrPool.Put(p)
	return buf[:0]
}

// recycle returns a receive buffer to the pool. The full capacity is cleared
// so the pool does not pin Message.IDs slices from old rounds.
func (d *delivery) recycle(buf []Message) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	clear(buf)
	p, _ := d.ptrPool.Get().(*[]Message)
	if p == nil {
		p = new([]Message)
	}
	*p = buf[:0]
	d.bufPool.Put(p)
}

// route delivers every active node's outbox, enforcing receive capacity, and
// returns the awaiters that received mail plus the first strict-mode error.
// Inbox order is deterministic: senders are processed in Gk-index order
// (active is sorted) and each outbox in send order. met is updated with
// message counts and congestion statistics for the round.
func (d *delivery) route(active []*Node, awaiters map[int]*Node, round int, met *Metrics) (woken []*Node, err error) {
	touched := d.touched[:0]
	woken = d.woken[:0]
	maxSent := 0
	for _, nd := range active {
		if len(nd.outbox) > maxSent {
			maxSent = len(nd.outbox)
		}
		for i := range nd.outbox {
			m := nd.outbox[i]
			dsti, ok := d.index[m.dst]
			if !ok {
				continue // unreachable: Send validated
			}
			dst := d.nodes[dsti]
			if d.recvCnt[dsti] == 0 {
				touched = append(touched, dsti)
			}
			d.recvCnt[dsti]++
			if dst.inbox == nil {
				dst.inbox = d.buffer()
			}
			dst.inbox = append(dst.inbox, m)
			met.Messages++
			if aw, isAw := awaiters[dsti]; isAw {
				delete(awaiters, dsti)
				woken = append(woken, aw)
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
