"""A RandomStream that counts its draws, for tests that pin how many draws
a session makes."""
from soqn.rng import RandomStream


class CountingStream(RandomStream):
    """Counts scalar draws in ``position``: n for a draw of n values, one
    for any other draw, none for a call that raises."""

    __slots__ = ("position",)

    def __init__(self, seed: int, label: str):
        super().__init__(seed, label)
        self.position = 0


def _counted(name: str, vector: bool):
    draw = getattr(RandomStream, name)

    def counted(self, *args):
        out = draw(self, *args)
        self.position += args[0] if vector else 1
        return out

    return counted


for _name in ("uniforms", "bits", "permutation"):
    setattr(CountingStream, _name, _counted(_name, True))
for _name in ("uniform", "binomial", "hypergeometric", "bit"):
    setattr(CountingStream, _name, _counted(_name, False))
