package transport

// mbox is reached through the embedding endpoint by Queued.
func (b *mailbox) mbox() *mailbox { return b }

// Queued reports how many delivered messages wait in ep's mailbox; ep is an
// endpoint of a network that embeds one (mem, tcp, reliable, coalescing).
func Queued(ep Endpoint) int { return len(ep.(interface{ mbox() *mailbox }).mbox().box) }
