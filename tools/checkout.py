"""A git revision's files in a temporary directory, for the tools that
compare this working tree against another revision.

    with checkout("HEAD~") as tree:
        ...  # tree holds the files of HEAD~, as `git archive` gives them

The copy is made with `git archive`, so it leaves no trace in the
repository (no worktree to prune), and is removed when the block ends.
"""

import contextlib
import os
import subprocess
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def checkout(rev):
    """Yield the path of a temporary copy of `rev`'s tracked files."""
    with tempfile.TemporaryDirectory(prefix="branekit_checkout_") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield tmp
