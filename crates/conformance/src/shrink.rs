//! Greedy case minimisation.
//!
//! [`shrink_case`] takes a failing case and a predicate (`true` = "still
//! fails") and repeatedly tries smaller candidates, keeping each one the
//! predicate accepts:
//!
//! 1. delete script steps (last first, so epilogue noise goes early);
//! 2. drop varying overrides and trailing unreferenced shaders/textures;
//! 3. mutate shader ASTs — delete statements (innermost included),
//!    globals and non-`main` functions, truncate vector-constructor
//!    argument lists, hoist subexpressions over their parents and replace
//!    subexpressions with `0.0` — revalidating every mutant through the
//!    real compiler before it is offered to the predicate;
//! 4. iterate to a fixpoint or until the evaluation budget runs out.
//!
//! [`shrink_point`] independently bisects an execution point toward the
//! serial scalar baseline, flipping one knob at a time while the failure
//! reproduces. [`ast_nodes`] is the size metric reported for shrunk
//! kernels.

use mgpu_prop::shadergen::{ConfCase, Step};
use mgpu_shader::ast::{Expr, Program, Stmt};
use mgpu_shader::pretty::print_program;

use crate::lattice::ExecPoint;
use crate::run::spec_from_source;

// ---------------------------------------------------------------------------
// AST size metric
// ---------------------------------------------------------------------------

/// Number of AST nodes in a program: globals, functions, statements and
/// expressions all count one each.
#[must_use]
pub fn ast_nodes(program: &Program) -> usize {
    let globals: usize = program
        .globals
        .iter()
        .map(|g| 1 + g.init.as_ref().map_or(0, expr_nodes))
        .sum();
    let functions: usize = program
        .functions
        .iter()
        .map(|f| 1 + f.body.iter().map(stmt_nodes).sum::<usize>())
        .sum();
    globals + functions
}

fn expr_nodes(expr: &Expr) -> usize {
    1 + match expr {
        Expr::Literal(_) | Expr::BoolLiteral(_) | Expr::Var(_) => 0,
        Expr::Unary { expr, .. } => expr_nodes(expr),
        Expr::Binary { lhs, rhs, .. } => expr_nodes(lhs) + expr_nodes(rhs),
        Expr::Call { args, .. } => args.iter().map(expr_nodes).sum(),
        Expr::Swizzle { base, .. } => expr_nodes(base),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => expr_nodes(cond) + expr_nodes(then_expr) + expr_nodes(else_expr),
    }
}

fn stmt_nodes(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::Decl { names, .. } => names
            .iter()
            .map(|(_, init)| init.as_ref().map_or(0, expr_nodes))
            .sum(),
        Stmt::Assign { value, .. } => expr_nodes(value),
        Stmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            expr_nodes(init)
                + expr_nodes(cond)
                + expr_nodes(update)
                + body.iter().map(stmt_nodes).sum::<usize>()
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            expr_nodes(cond)
                + then_branch.iter().map(stmt_nodes).sum::<usize>()
                + else_branch.iter().map(stmt_nodes).sum::<usize>()
        }
        Stmt::Return { value, .. } => value.as_ref().map_or(0, expr_nodes),
        Stmt::ExprStmt { expr, .. } => expr_nodes(expr),
    }
}

// ---------------------------------------------------------------------------
// AST mutations
// ---------------------------------------------------------------------------

/// One expression-level mutation, applied to the `n`-th expression in
/// program DFS order.
#[derive(Clone, Copy)]
enum ExprMutation {
    /// Replace with the literal `0.0`.
    Zero,
    /// Replace with `vec4(0.0)` — the terminal move for the mandatory
    /// `gl_FragColor` write's right-hand side.
    Vec4Zero,
    /// Replace with its `k`-th child.
    Hoist(usize),
    /// Truncate a multi-argument call to its first argument (vector
    /// constructors splat scalars, so this often stays well-typed).
    TruncateArgs,
}

fn nth_child(expr: &Expr, k: usize) -> Option<&Expr> {
    match expr {
        Expr::Literal(_) | Expr::BoolLiteral(_) | Expr::Var(_) => None,
        Expr::Unary { expr, .. } => (k == 0).then_some(expr.as_ref()),
        Expr::Binary { lhs, rhs, .. } => match k {
            0 => Some(lhs),
            1 => Some(rhs),
            _ => None,
        },
        Expr::Call { args, .. } => args.get(k),
        Expr::Swizzle { base, .. } => (k == 0).then_some(base.as_ref()),
        Expr::Ternary {
            then_expr,
            else_expr,
            ..
        } => match k {
            0 => Some(then_expr),
            1 => Some(else_expr),
            _ => None,
        },
    }
}

fn apply_mutation(expr: &mut Expr, mutation: ExprMutation) -> bool {
    match mutation {
        ExprMutation::Zero => {
            if matches!(expr, Expr::Literal(_)) {
                return false;
            }
            *expr = Expr::Literal(0.0);
            true
        }
        ExprMutation::Vec4Zero => {
            let zero = Expr::Call {
                name: "vec4".to_owned(),
                args: vec![Expr::Literal(0.0)],
                line: 0,
            };
            if *expr == zero {
                return false;
            }
            *expr = zero;
            true
        }
        ExprMutation::Hoist(k) => match nth_child(expr, k).cloned() {
            Some(child) => {
                *expr = child;
                true
            }
            None => false,
        },
        ExprMutation::TruncateArgs => {
            if let Expr::Call { args, .. } = expr {
                if args.len() > 1 {
                    args.truncate(1);
                    return true;
                }
            }
            false
        }
    }
}

/// Visits expression `*n` (DFS pre-order) and applies `mutation`;
/// decrements `*n` past every expression visited.
fn mutate_expr(expr: &mut Expr, n: &mut usize, mutation: ExprMutation) -> bool {
    if *n == usize::MAX {
        // A previous visit already consumed the position (as a no-op);
        // don't let sibling traversals decrement past the sentinel.
        return false;
    }
    if *n == 0 {
        // Position found: report whether the mutation changed anything.
        // Either way the search stops here, so bump the counter past any
        // further positions by making it impossible to hit zero again.
        let applied = apply_mutation(expr, mutation);
        *n = usize::MAX;
        return applied;
    }
    *n -= 1;
    match expr {
        Expr::Literal(_) | Expr::BoolLiteral(_) | Expr::Var(_) => false,
        Expr::Unary { expr, .. } | Expr::Swizzle { base: expr, .. } => {
            mutate_expr(expr, n, mutation)
        }
        Expr::Binary { lhs, rhs, .. } => {
            mutate_expr(lhs, n, mutation) || mutate_expr(rhs, n, mutation)
        }
        Expr::Call { args, .. } => args.iter_mut().any(|a| mutate_expr(a, n, mutation)),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            mutate_expr(cond, n, mutation)
                || mutate_expr(then_expr, n, mutation)
                || mutate_expr(else_expr, n, mutation)
        }
    }
}

fn stmt_exprs_mut(stmt: &mut Stmt) -> Vec<&mut Expr> {
    match stmt {
        Stmt::Decl { names, .. } => names
            .iter_mut()
            .filter_map(|(_, init)| init.as_mut())
            .collect(),
        Stmt::Assign { value, .. } => vec![value],
        Stmt::For {
            init, cond, update, ..
        } => vec![init, cond, update],
        Stmt::If { cond, .. } => vec![cond],
        Stmt::Return { value, .. } => value.as_mut().into_iter().collect(),
        Stmt::ExprStmt { expr, .. } => vec![expr],
    }
}

fn stmt_bodies_mut(stmt: &mut Stmt) -> Vec<&mut Vec<Stmt>> {
    match stmt {
        Stmt::For { body, .. } => vec![body],
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => vec![then_branch, else_branch],
        _ => Vec::new(),
    }
}

fn mutate_expr_in_body(body: &mut Vec<Stmt>, n: &mut usize, mutation: ExprMutation) -> bool {
    for stmt in body {
        for expr in stmt_exprs_mut(stmt) {
            if mutate_expr(expr, n, mutation) {
                return true;
            }
            if *n == usize::MAX {
                return false;
            }
        }
        for nested in stmt_bodies_mut(stmt) {
            if mutate_expr_in_body(nested, n, mutation) {
                return true;
            }
            if *n == usize::MAX {
                return false;
            }
        }
    }
    false
}

/// Applies `mutation` to the `n`-th expression of the program (DFS over
/// global initialisers then function bodies). `false` when `n` is out of
/// range or the mutation was a no-op.
fn mutate_program_expr(program: &mut Program, mut n: usize, mutation: ExprMutation) -> bool {
    for global in &mut program.globals {
        if let Some(init) = &mut global.init {
            if mutate_expr(init, &mut n, mutation) {
                return true;
            }
            if n == usize::MAX {
                return false;
            }
        }
    }
    for function in &mut program.functions {
        if mutate_expr_in_body(&mut function.body, &mut n, mutation) {
            return true;
        }
        if n == usize::MAX {
            return false;
        }
    }
    false
}

fn program_expr_count(program: &Program) -> usize {
    let globals: usize = program
        .globals
        .iter()
        .map(|g| g.init.as_ref().map_or(0, expr_nodes))
        .sum();
    let functions: usize = program
        .functions
        .iter()
        .map(|f| f.body.iter().map(stmt_exprs_total).sum::<usize>())
        .sum();
    globals + functions
}

fn stmt_exprs_total(stmt: &Stmt) -> usize {
    stmt_nodes(stmt) - stmt_count(std::slice::from_ref(stmt))
}

fn stmt_count(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| {
            1 + match s {
                Stmt::For { body, .. } => stmt_count(body),
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => stmt_count(then_branch) + stmt_count(else_branch),
                _ => 0,
            }
        })
        .sum()
}

fn program_stmt_count(program: &Program) -> usize {
    program.functions.iter().map(|f| stmt_count(&f.body)).sum()
}

/// Deletes the `n`-th statement (DFS pre-order over all function bodies,
/// nested bodies included).
fn delete_program_stmt(program: &mut Program, mut n: usize) -> bool {
    for function in &mut program.functions {
        if delete_stmt_in(&mut function.body, &mut n) {
            return true;
        }
    }
    false
}

fn delete_stmt_in(body: &mut Vec<Stmt>, n: &mut usize) -> bool {
    let mut index = 0;
    while index < body.len() {
        if *n == 0 {
            body.remove(index);
            return true;
        }
        *n -= 1;
        let mut deleted = false;
        for nested in stmt_bodies_mut(&mut body[index]) {
            if delete_stmt_in(nested, n) {
                deleted = true;
                break;
            }
        }
        if deleted {
            return true;
        }
        index += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Shrink drivers
// ---------------------------------------------------------------------------

/// A shader mutant that still compiles, or `None` when the mutation was a
/// no-op or produced an invalid program.
fn viable_mutant(program: &Program, mutate: impl FnOnce(&mut Program) -> bool) -> Option<String> {
    let mut mutant = program.clone();
    if !mutate(&mut mutant) {
        return None;
    }
    let source = print_program(&mutant);
    mgpu_shader::compile(&source).ok()?;
    Some(source)
}

/// Texture slots a script still references.
fn referenced_slots(steps: &[Step]) -> Vec<u8> {
    let mut slots = Vec::new();
    for step in steps {
        let slot = match step {
            Step::BindTexture { slot, .. }
            | Step::Upload { slot, .. }
            | Step::Target { slot: Some(slot) }
            | Step::CopyOut { slot, .. }
            | Step::ReadTexture { slot } => Some(*slot),
            _ => None,
        };
        if let Some(slot) = slot {
            if !slots.contains(&slot) {
                slots.push(slot);
            }
        }
    }
    slots
}

fn referenced_shaders(steps: &[Step]) -> Vec<u8> {
    let mut shaders = Vec::new();
    for step in steps {
        let shader = match step {
            Step::UseProgram { shader }
            | Step::Relink { shader }
            | Step::SetUniform { shader, .. }
            | Step::SetSampler { shader, .. } => Some(*shader),
            _ => None,
        };
        if let Some(shader) = shader {
            if !shaders.contains(&shader) {
                shaders.push(shader);
            }
        }
    }
    shaders
}

/// Greedily minimises `case` while `fails` keeps returning `true`,
/// spending at most `max_evals` predicate evaluations. The returned case
/// always still satisfies `fails` (in the worst case it is the input
/// itself).
pub fn shrink_case(
    case: &ConfCase,
    mut fails: impl FnMut(&ConfCase) -> bool,
    max_evals: usize,
) -> ConfCase {
    let mut best = case.clone();
    let mut evals = 0usize;
    loop {
        let mut progress = false;

        // Pass 1: drop script steps, last first.
        let mut index = best.steps.len();
        while index > 0 {
            index -= 1;
            if evals >= max_evals {
                return best;
            }
            let mut candidate = best.clone();
            candidate.steps.remove(index);
            evals += 1;
            if fails(&candidate) {
                best = candidate;
                progress = true;
            }
        }

        // Pass 2: drop varying overrides.
        let mut index = best.overrides.len();
        while index > 0 {
            index -= 1;
            if evals >= max_evals {
                return best;
            }
            let mut candidate = best.clone();
            candidate.overrides.remove(index);
            evals += 1;
            if fails(&candidate) {
                best = candidate;
                progress = true;
            }
        }

        // Pass 3: drop trailing unreferenced shaders and textures (no
        // renumbering needed for a suffix).
        let max_shader = referenced_shaders(&best.steps)
            .iter()
            .max()
            .map_or(0, |&s| s as usize + 1);
        let max_slot = referenced_slots(&best.steps)
            .iter()
            .max()
            .map_or(0, |&s| s as usize + 1);
        if (max_shader < best.shaders.len() || max_slot < best.textures.len()) && evals < max_evals
        {
            let mut candidate = best.clone();
            candidate.shaders.truncate(max_shader.max(1));
            candidate.textures.truncate(max_slot);
            evals += 1;
            if fails(&candidate) {
                best = candidate;
                progress = true;
            }
        }

        // Pass 4: shrink each referenced shader's AST.
        for shader_index in 0..best.shaders.len() {
            let Ok(program) = mgpu_shader::parse(&best.shaders[shader_index].source) else {
                continue;
            };
            let mut candidates: Vec<String> = Vec::new();
            for n in (0..program_stmt_count(&program)).rev() {
                candidates.extend(viable_mutant(&program, |p| delete_program_stmt(p, n)));
            }
            for n in (0..program.globals.len()).rev() {
                candidates.extend(viable_mutant(&program, |p| {
                    p.globals.remove(n);
                    true
                }));
            }
            for n in (0..program.functions.len()).rev() {
                if program.functions[n].name == "main" {
                    continue;
                }
                candidates.extend(viable_mutant(&program, |p| {
                    p.functions.remove(n);
                    true
                }));
            }
            let exprs = program_expr_count(&program);
            for n in 0..exprs {
                for mutation in [
                    ExprMutation::TruncateArgs,
                    ExprMutation::Hoist(0),
                    ExprMutation::Hoist(1),
                    ExprMutation::Zero,
                    ExprMutation::Vec4Zero,
                ] {
                    candidates.extend(viable_mutant(&program, |p| {
                        mutate_program_expr(p, n, mutation)
                    }));
                }
            }
            for source in candidates {
                if evals >= max_evals {
                    return best;
                }
                if source == best.shaders[shader_index].source {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.shaders[shader_index] = spec_from_source(&source);
                evals += 1;
                if fails(&candidate) {
                    best = candidate;
                    progress = true;
                    // The AST changed; re-enumerate against the new best.
                    break;
                }
            }
        }

        if !progress || evals >= max_evals {
            return best;
        }
    }
}

/// Bisects `point` toward [`ExecPoint::baseline`], flipping one knob at a
/// time while `fails` keeps reproducing; returns the simplest point that
/// still fails.
pub fn shrink_point(point: ExecPoint, mut fails: impl FnMut(&ExecPoint) -> bool) -> ExecPoint {
    let baseline = ExecPoint::baseline();
    let mut best = point;
    loop {
        let candidates = [
            ExecPoint {
                engine: baseline.engine,
                spec: false,
                ..best
            },
            ExecPoint {
                spec: false,
                ..best
            },
            ExecPoint {
                pool: false,
                plan_cache: false,
                ..best
            },
            ExecPoint {
                plan_cache: false,
                ..best
            },
            ExecPoint {
                tile_skip: false,
                ..best
            },
            ExecPoint { threads: 1, ..best },
        ];
        let mut progress = false;
        for candidate in candidates {
            if candidate != best && fails(&candidate) {
                best = candidate;
                progress = true;
                break;
            }
        }
        if !progress {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_gles::Engine;

    const KERNEL: &str = "uniform float u0;\n\
                          varying vec2 v0;\n\
                          void main() {\n\
                              float a = u0 * 2.0;\n\
                              float b = a + v0.x;\n\
                              gl_FragColor = vec4(b, a, 0.0, 1.0);\n\
                          }\n";

    #[test]
    fn ast_nodes_counts_the_minimal_kernel_as_four() {
        let program = mgpu_shader::parse("void main() { gl_FragColor = vec4(0.0); }").unwrap();
        // function + assignment + call + literal
        assert_eq!(ast_nodes(&program), 4);
    }

    #[test]
    fn statement_deletion_hits_every_position() {
        let program = mgpu_shader::parse(KERNEL).unwrap();
        let total = program_stmt_count(&program);
        assert_eq!(total, 3);
        for n in 0..total {
            let mut mutant = program.clone();
            assert!(delete_program_stmt(&mut mutant, n));
            assert_eq!(program_stmt_count(&mutant), total - 1);
        }
        let mut mutant = program.clone();
        assert!(!delete_program_stmt(&mut mutant, total));
    }

    #[test]
    fn zero_mutation_shrinks_expressions() {
        let program = mgpu_shader::parse(KERNEL).unwrap();
        let before = ast_nodes(&program);
        let mut shrunk_any = false;
        for n in 0..program_expr_count(&program) {
            let mut mutant = program.clone();
            if mutate_program_expr(&mut mutant, n, ExprMutation::Zero) {
                assert!(ast_nodes(&mutant) <= before);
                shrunk_any = true;
            }
        }
        assert!(shrunk_any);
    }

    #[test]
    fn shrink_case_reaches_a_tiny_kernel_for_an_always_failing_predicate() {
        // With a predicate that accepts everything that still compiles and
        // draws, the shrinker must grind the case down to near-nothing.
        let case = {
            let mut rng = mgpu_prop::case_rng(3);
            mgpu_prop::shadergen::gen_case(&mut rng)
        };
        let shrunk = shrink_case(&case, |_| true, 4000);
        assert!(shrunk.steps.is_empty());
        assert_eq!(shrunk.shaders.len(), 1);
        let program = mgpu_shader::parse(&shrunk.shaders[0].source).unwrap();
        assert!(
            ast_nodes(&program) <= 10,
            "stuck at {} nodes:\n{}",
            ast_nodes(&program),
            shrunk.shaders[0].source
        );
    }

    #[test]
    fn shrink_point_walks_to_the_baseline_when_everything_fails() {
        let worst = ExecPoint {
            engine: Engine::Compiled,
            spec: true,
            pool: true,
            plan_cache: true,
            tile_skip: true,
            threads: 8,
        };
        assert_eq!(shrink_point(worst, |_| true), ExecPoint::baseline());
        // And stays put when nothing simpler reproduces.
        assert_eq!(shrink_point(worst, |p| *p == worst), worst);
    }

    #[test]
    fn shrink_point_keeps_compiled_when_scalar_passes() {
        let worst = ExecPoint {
            engine: Engine::Compiled,
            spec: false,
            pool: false,
            plan_cache: false,
            tile_skip: false,
            threads: 1,
        };
        // The failure never reproduces on the scalar reference: the
        // shrinker must keep the compiled tier, and it has nothing else
        // left to simplify.
        let shrunk = shrink_point(worst, |p| p.engine != Engine::Scalar);
        assert_eq!(shrunk, worst);
    }
}
