from .losses import loss_adv, loss_disc, loss_sv
from .model import (Discriminator, Generator, generator_forward,
                    load_checkpoint, save_checkpoint)
from .train import TrainConfig, train

__all__ = [
    "Discriminator", "Generator", "TrainConfig", "generator_forward",
    "load_checkpoint", "loss_adv", "loss_disc", "loss_sv", "save_checkpoint",
    "train",
]
