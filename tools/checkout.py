"""Copies of git trees in a temporary directory, for the tools that compare
this working tree against another revision.

    with checkout("HEAD~") as tree:
        ...  # tree holds the files of HEAD~, as `git archive` gives them

    with checkout_pair(commit_of("HEAD~"), working_tree_commit()) as (parent, child):
        ...  # parent: HEAD~'s files; child: this working tree's tracked files

The copies leave no trace in the repository (no worktree to prune) and are
removed when the block ends.  `checkout_pair` puts both trees at paths of
equal length, so that a measurement that depends on where a tree sits (the
peak RSS of a process run from it does) moves alike on both sides.
"""

import contextlib
import os
import subprocess
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(root, *argv):
    """The stripped standard output of `git argv` run in `root`."""
    return subprocess.run(["git", *argv], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def commit_of(rev, root=ROOT):
    """The full sha of the commit `rev` names."""
    return git(root, "rev-parse", "--verify", rev + "^{commit}")


def working_tree_commit(root=ROOT):
    """The sha of a commit of the working tree's tracked files: uncommitted
    edits and deletions included, untracked files left out (`git stash
    create`, which touches no ref), or HEAD's sha when nothing tracked
    differs from it."""
    return git(root, "stash", "create") or commit_of("HEAD", root)


def archive(rev, dest, root=ROOT):
    """Write `rev`'s tracked files into the directory `dest`."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                          check=True, capture_output=True).stdout
    os.makedirs(dest, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", dest], input=data, check=True)


@contextlib.contextmanager
def checkout(rev):
    """Yield the path of a temporary copy of `rev`'s tracked files."""
    with tempfile.TemporaryDirectory(prefix="branekit_checkout_") as tmp:
        archive(rev, tmp)
        yield tmp


@contextlib.contextmanager
def checkout_pair(parent_rev, child_rev, root=ROOT):
    """Yield (parent, child): copies of `parent_rev`'s and `child_rev`'s
    tracked files, side by side in one temporary directory under names of
    equal length."""
    with tempfile.TemporaryDirectory(prefix="branekit_ab_") as tmp:
        parent, child = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        archive(parent_rev, parent, root)
        archive(child_rev, child, root)
        yield parent, child
