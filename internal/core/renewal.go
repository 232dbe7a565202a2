package core

// VolumeRequestKind names a message the client sends in a volume
// conversation.
type VolumeRequestKind int

const (
	// RenewalDone: the volume lease is installed; nothing more to send.
	RenewalDone VolumeRequestKind = iota
	// SendReqVolLease: REQ_VOL_LEASE, presenting Epoch.
	SendReqVolLease
	// SendRenewObjLeases: RENEW_OBJ_LEASES, listing Held.
	SendRenewObjLeases
	// SendAckInvalidate: ACK_INVALIDATE, naming Acked.
	SendAckInvalidate
)

// VolumeRequest is the client's next message in a volume conversation.
type VolumeRequest struct {
	Kind  VolumeRequestKind
	Epoch Epoch        // SendReqVolLease: the epoch presented
	Held  []HeldObject // SendRenewObjLeases: every copy of the volume's objects
	Acked []ObjectID   // SendAckInvalidate: the objects the vector dropped
}

// Renewal is the client half of one volume conversation (Figure 4, "Client
// renews volume lease"), the counterpart of the table's conversation
// (conversation.go): it names each message the client sends and applies
// each of the server's answers to the holder. It does no I/O: the caller
// carries the messages, and calls Step under whatever lock guards the
// holder. One Renewal serves one conversation, from its request to the
// grant.
type Renewal struct {
	h   *Holder
	vid VolumeID
	// last is the message the next answer answers; reconnected is set once
	// the server demanded the held list.
	last        VolumeRequest
	reconnected bool
}

// RenewalStep is what Renewal.Step did with one answer.
type RenewalStep struct {
	// Next is the message to send now: RenewalDone once the lease is
	// installed.
	Next VolumeRequest
	// Dropped lists the objects the answer invalidated. The client hands
	// them to whatever caches downstream of it before it sends Next, whose
	// ack releases the server.
	Dropped []ObjectID
	// Folded marks a grant that answers the ack of a pending delivery. The
	// wire sends it as a VOL_LEASE of its own; the paper's cost model folds
	// it into the vector, and so charges pending delivery 3 messages where
	// it charges a reconnection 6 (DESIGN.md §4).
	Folded bool
}

// RenewVolume opens a volume conversation on vid and names its first
// message: REQ_VOL_LEASE presenting epoch. A client presents Epoch(vid), so
// a server that restarted since its last grant answers with the
// reconnection protocol; a caller whose servers never restart may present
// the volume's current epoch instead.
func (h *Holder) RenewVolume(vid VolumeID, epoch Epoch) (Renewal, VolumeRequest) {
	req := VolumeRequest{Kind: SendReqVolLease, Epoch: epoch}
	return Renewal{h: h, vid: vid, last: req}, req
}

// Step applies the server's answer g, received at a, to the holder and
// names the next message:
//   - VolumeGranted installs the lease; the conversation is done.
//   - VolumePendingInvalidations drops Invalidate and installs the leases
//     of Renew; the next message acks the drops.
//   - VolumeNeedsRenewAll lists every copy the holder keeps of the
//     volume's objects for RENEW_OBJ_LEASES.
//   - VolumeAckOwed changes nothing: the last message is to be sent again,
//     once the writes the client owes an ack have finished.
func (r *Renewal) Step(g VolumeGrant, a Anchor) RenewalStep {
	var st RenewalStep
	switch g.Status {
	case VolumeGranted:
		r.h.grantVolume(r.vid, g.Epoch, g.Expire, a)
		st.Folded = r.last.Kind == SendAckInvalidate && !r.reconnected
		r.last = VolumeRequest{Kind: RenewalDone}
	case VolumePendingInvalidations:
		r.h.Invalidate(g.Invalidate)
		for _, o := range g.Renew {
			r.h.renewObject(o.Object, o.Version, o.Expire, a)
		}
		st.Dropped = g.Invalidate
		r.last = VolumeRequest{Kind: SendAckInvalidate, Acked: g.Invalidate}
	case VolumeNeedsRenewAll:
		r.reconnected = true
		r.last = VolumeRequest{Kind: SendRenewObjLeases, Held: r.h.held(r.vid)}
	}
	st.Next = r.last
	return st
}
