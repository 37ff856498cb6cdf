package a

import "testing"

// A test's read does not count.
func TestUnread(t *testing.T) {
	if New().Unread != 0 {
		t.Fatal("Unread set")
	}
}
