"""The motion-prior network: layers, losses, model and training."""
