"""The README's code examples run as written."""

import re
from pathlib import Path

from gwrnet.datasets import SyntheticSpec, generate_synthetic

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    """The first python block under "## Library" trains and replays on a
    tiny synthetic set, so the README cannot drift from the signatures."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    spec = SyntheticSpec(categories=2, instances=2, sessions=2, dim=16, frames_per_seq=4)
    dataset = generate_synthetic(spec, 3)
    scope = {"my_sequences": [(seq.features, seq.instance) for seq in dataset.sequences]}
    exec(code, scope)
    net, labels = scope["net"], scope["labels"]
    # one transition per training step past each sequence's first frame
    transitions = sum(count for _, _, count in net.transitions)
    assert transitions == dataset.num_frames - len(dataset.sequences)
    assert labels.replay_records > 0
