package ncc

// idSet is a set of node IDs: a node's NCC0 knowledge. It is an
// open-addressed hash table with linear probing, cheaper than a Go map for
// the engine's one-insert-per-learned-ID pattern. None is never a member —
// add ignores it and has reports false — which frees None to mark the empty
// slots. The zero value is an empty set.
type idSet struct {
	slots []ID // length 0 or a power of two; None marks an empty slot
	n     int  // members
}

// idSetMinSlots is the table size of a set's first insert.
const idSetMinSlots = 8

// idSlot returns the index of id's slot in slots: the slot holding id, or the
// empty slot where it would go. slots must have a free slot.
func idSlot(slots []ID, id ID) int {
	mask := len(slots) - 1
	h := uint64(id) * 0x9E3779B97F4A7C15
	i := int(h^h>>32) & mask
	for slots[i] != id && slots[i] != None {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether id is in the set.
func (s *idSet) has(id ID) bool {
	if id == None || s.n == 0 {
		return false
	}
	return s.slots[idSlot(s.slots, id)] == id
}

// add inserts id; None is ignored.
func (s *idSet) add(id ID) {
	if id == None {
		return
	}
	if len(s.slots) == 0 {
		s.slots = make([]ID, idSetMinSlots)
	}
	i := idSlot(s.slots, id)
	if s.slots[i] == id {
		return
	}
	s.slots[i] = id
	s.n++
	if 4*s.n > 3*len(s.slots) {
		s.grow()
	}
}

// grow doubles the table, keeping the load factor at most 3/4 so probe
// sequences stay short and always reach an empty slot.
func (s *idSet) grow() {
	old := s.slots
	s.slots = make([]ID, 2*len(old))
	for _, id := range old {
		if id != None {
			s.slots[idSlot(s.slots, id)] = id
		}
	}
}

// idTable maps each node ID to its Gk position. It is open-addressed and
// probed with idSlot like idSet, at a load factor of at most 1/2, and holds
// the positions in a parallel array. A Sim builds it once; its Trace shares
// it.
type idTable struct {
	slots []ID    // a power of two long; None marks an empty slot
	pos   []int32 // pos[i] is the Gk position of slots[i]
}

// newIDTable indexes ids, which are distinct and never None, by position.
func newIDTable(ids []ID) idTable {
	size := idSetMinSlots
	for size < 2*len(ids) {
		size *= 2
	}
	t := idTable{slots: make([]ID, size), pos: make([]int32, size)}
	for i, id := range ids {
		j := idSlot(t.slots, id)
		t.slots[j], t.pos[j] = id, int32(i)
	}
	return t
}

// lookup returns id's Gk position, and whether id names a node.
func (t *idTable) lookup(id ID) (int, bool) {
	if id == None {
		return 0, false
	}
	j := idSlot(t.slots, id)
	if t.slots[j] != id {
		return 0, false
	}
	return int(t.pos[j]), true
}
