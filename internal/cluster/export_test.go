package cluster

import "repro/internal/rigid"

// ProfileAsIs returns the Sim's profile as it stands, without bringing it
// up to date the way View.Profile does.
func (s *Sim) ProfileAsIs() *rigid.Profile { return s.profile }
