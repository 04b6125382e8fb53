"""Keypoint fits, the refinement energies and the LM solver they share."""
